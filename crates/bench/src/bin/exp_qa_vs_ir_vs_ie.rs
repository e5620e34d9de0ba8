//! E4 — the comparison the paper's introduction argues: **QA vs IR vs
//! IE** for feeding a BI system from unstructured data.
//!
//! * IR "only returns unstructured information … which cannot be easily
//!   processed by BI applications" — its structured-output precision is
//!   zero by construction; we also measure the answer-in-text rate and
//!   the user's reading burden.
//! * IE (Badia 2006) fills fixed templates but "does not facilitate the
//!   processing of huge amounts of documents" — its cost scans the whole
//!   corpus, and questions outside its template set return nothing.
//! * QA returns typed tuples from IR-filtered passages; the paper's
//!   argument is exactly this trade: a slower, deeper analysis that BI
//!   can consume directly.

use dwqa_baselines::{evaluate_temperatures, IeBaseline, IeTemplate, IrBaseline};
use dwqa_bench::{build_fixture, monthly_question, section, FixtureConfig};
use dwqa_common::{Date, Month};
use dwqa_engine::QaEngine;
use std::time::Instant;

fn main() {
    let question = monthly_question("El Prat", 2004, Month::January);
    println!("Question: {question}\n");
    println!(
        "{:<6} | {:<28} | {:<9} | {:<10} | {:<12} | notes",
        "docs", "system", "tuples", "precision", "query time"
    );
    for &distractors in &[12usize, 112, 1012] {
        let t0 = Instant::now();
        let fx = build_fixture(FixtureConfig {
            distractors,
            ..FixtureConfig::default()
        });
        let index_time = t0.elapsed();
        let n_docs = fx.corpus_size;

        // --- QA -------------------------------------------------------------
        let engine = QaEngine::new(&fx.pipeline);
        let t0 = Instant::now();
        let answers = engine.answer(&question);
        let qa_time = t0.elapsed();
        // A repeat of the same question is served from the answer cache.
        let t0 = Instant::now();
        let cached = engine.answer(&question);
        let cached_time = t0.elapsed();
        assert_eq!(cached, answers);
        let qa_eval = evaluate_temperatures(&answers, |c, d| fx.truth.temperature(c, d), &[], 0.51);
        println!(
            "{n_docs:<6} | {:<28} | {:<9} | {:<10.3} | {:<12?} | typed (temp, date, city, url); index {index_time:?}; cached repeat {cached_time:?}",
            "QA (this paper)",
            answers.len(),
            qa_eval.precision(),
            qa_time,
        );

        // --- IR -------------------------------------------------------------
        // The baselines index the same corpus; rebuild it identically.
        let (store, truth) = dwqa_bench::build_corpus(&FixtureConfig {
            distractors,
            ..FixtureConfig::default()
        });
        let ir = IrBaseline::build(&store);
        let truth_values: Vec<String> = Date::month_days(2004, Month::January)
            .filter_map(|d| truth.temperature("Barcelona", d))
            .map(|t| format!("{t}º C"))
            .collect();
        for (label, results) in [
            ("IR documents (refs 19, 6)", {
                let t0 = Instant::now();
                let r = ir.search_documents(&question, 1);
                (t0.elapsed(), r)
            }),
            ("IR-n passages (ref 9)", {
                let t0 = Instant::now();
                let r = ir.search_passages(&question, 1);
                (t0.elapsed(), r)
            }),
        ]
        .map(|(l, (t, r))| (l, (t, r)))
        {
            let (time, hits) = results;
            let contains = hits
                .first()
                .map(|h| truth_values.iter().filter(|v| h.contains_answer(v)).count())
                .unwrap_or(0);
            let burden = hits.first().map_or(0, |h| h.reading_burden());
            println!(
                "{n_docs:<6} | {label:<28} | {:<9} | {:<10.3} | {time:<12?} | text only; {contains} true readings buried in {burden} chars",
                0, 0.0
            );
        }

        // --- IE -------------------------------------------------------------
        let ie = IeBaseline::new(vec![IeTemplate::Temperature]);
        let t0 = Instant::now();
        let filled = ie.scan(&store);
        let ie_time = t0.elapsed();
        println!(
            "{n_docs:<6} | {:<28} | {:<9} | {:<10} | {ie_time:<12?} | full-corpus scan, fixed templates only",
            "IE templates (ref 1)",
            filled.len(),
            "n/a",
        );
    }
    section("Shape check vs the paper");
    println!("QA: few, typed, high-precision tuples at IR-comparable query latency.");
    println!("IR: zero structured tuples — the user reads text (burden column).");
    println!("IE: extraction without questions; scan time grows linearly with the corpus");
    println!("    and the template set bounds what can ever be asked.");
}
