//! The AliQAn facade: indexation + the three search-phase modules.

use crate::analysis::{analyze_question, QuestionAnalysis};
use crate::extraction::{extract_answers, Answer};
use crate::index::QaIndex;
use crate::patterns::{default_patterns, QuestionPattern};
use dwqa_common::ConfigError;
use dwqa_ir::{DocumentStore, Passage, PassageRetriever};
use dwqa_nlp::{analyze_sentence, render_annotated, Lexicon};
use dwqa_ontology::Ontology;

/// Configuration of an AliQAn instance.
///
/// Construct with [`AliQAnConfig::builder`]; the struct is
/// `#[non_exhaustive]` so new knobs can be added without breaking
/// downstream crates.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct AliQAnConfig {
    /// IR-n passage window in sentences (paper: 8).
    pub passage_window: usize,
    /// Passages Module 2 hands to Module 3.
    pub passages_k: usize,
    /// Answers returned per question.
    pub answers_k: usize,
}

impl Default for AliQAnConfig {
    fn default() -> AliQAnConfig {
        AliQAnConfig {
            passage_window: PassageRetriever::DEFAULT_WINDOW,
            passages_k: 5,
            answers_k: 5,
        }
    }
}

impl AliQAnConfig {
    /// Starts a builder pre-loaded with the defaults.
    pub fn builder() -> AliQAnConfigBuilder {
        AliQAnConfigBuilder {
            config: AliQAnConfig::default(),
        }
    }

    /// Checks every knob's range (the workspace builder convention:
    /// validation happens once at `build()`, not at first use).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.passage_window == 0 {
            return Err(ConfigError::new(
                "passage_window",
                "must be at least 1 sentence (got 0)",
            ));
        }
        if self.passages_k == 0 {
            return Err(ConfigError::new(
                "passages_k",
                "must hand at least 1 passage to Module 3 (got 0)",
            ));
        }
        if self.answers_k == 0 {
            return Err(ConfigError::new(
                "answers_k",
                "must return at least 1 answer (got 0)",
            ));
        }
        Ok(())
    }
}

/// Builder for [`AliQAnConfig`].
///
/// ```
/// use dwqa_qa::AliQAnConfig;
/// let config = AliQAnConfig::builder()
///     .passage_window(4)
///     .answers_k(3)
///     .build()
///     .unwrap();
/// assert_eq!(config.passage_window, 4);
/// assert_eq!(config.answers_k, 3);
/// assert!(AliQAnConfig::builder().passage_window(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct AliQAnConfigBuilder {
    config: AliQAnConfig,
}

impl AliQAnConfigBuilder {
    /// Sets the IR-n passage window in sentences.
    pub fn passage_window(mut self, sentences: usize) -> Self {
        self.config.passage_window = sentences;
        self
    }

    /// Sets how many passages Module 2 hands to Module 3.
    pub fn passages_k(mut self, k: usize) -> Self {
        self.config.passages_k = k;
        self
    }

    /// Sets how many answers are returned per question.
    pub fn answers_k(mut self, k: usize) -> Self {
        self.config.answers_k = k;
        self
    }

    /// Finishes the builder, validating every knob's range.
    pub fn build(self) -> Result<AliQAnConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// The QA system: lexicon, ontology, pattern bank and an indexed corpus.
pub struct AliQAn {
    lexicon: Lexicon,
    ontology: Ontology,
    patterns: Vec<QuestionPattern>,
    config: AliQAnConfig,
    index: Option<QaIndex>,
    store: Option<DocumentStore>,
}

/// A full pipeline trace — the rows of the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineTrace {
    /// Row 1: the query.
    pub query: String,
    /// Row 2: syntactic-morphologic analysis of the query.
    pub query_analysis: String,
    /// Row 3: the matched question pattern.
    pub question_pattern: String,
    /// Row 4: the expected answer type.
    pub expected_answer_type: String,
    /// Row 5: main SBs passed to the IR-n passage retrieval system.
    pub main_sbs: Vec<String>,
    /// Row 6: the passage returned by the IR-n system.
    pub passage: String,
    /// Row 7: syntactic-morphologic analysis of the passage.
    pub passage_analysis: String,
    /// Row 8: the extracted answer(s).
    pub extracted_answers: Vec<String>,
}

impl PipelineTrace {
    /// Renders the trace as the two-column table of the paper.
    pub fn render(&self) -> String {
        let mut rows: Vec<(&str, String)> = vec![
            ("Query", self.query.clone()),
            (
                "Syntactic-morphologic analysis of the query",
                self.query_analysis.clone(),
            ),
            ("Question pattern", self.question_pattern.clone()),
            ("Expected answer type", self.expected_answer_type.clone()),
            (
                "Main SBs passed to the IR-n passage retrieval system",
                self.main_sbs
                    .iter()
                    .map(|s| format!("[{s}]"))
                    .collect::<Vec<_>>()
                    .join("  "),
            ),
            ("Passage returned by the IR-n system", self.passage.clone()),
            (
                "Syntactic-morphologic analysis of the passage",
                self.passage_analysis.clone(),
            ),
            ("Extracted answer", self.extracted_answers.join(", ")),
        ];
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        rows.iter_mut()
            .map(|(k, v)| format!("{k:<width$} | {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl AliQAn {
    /// Creates a system with the default pattern bank over the given
    /// ontology (typically the merged upper ontology).
    pub fn new(ontology: Ontology, config: AliQAnConfig) -> AliQAn {
        AliQAn {
            lexicon: Lexicon::english(),
            ontology,
            patterns: default_patterns(),
            config,
            index: None,
            store: None,
        }
    }

    /// Step 4: registers an additional (tuned) question pattern.
    pub fn tune(&mut self, pattern: QuestionPattern) {
        self.patterns.push(pattern);
    }

    /// The ontology in use.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// Mutable access to the ontology (Step 4 attaches axioms).
    pub fn ontology_mut(&mut self) -> &mut Ontology {
        &mut self.ontology
    }

    /// The lexicon in use.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// The indexed corpus, if [`AliQAn::index_corpus`] has run: the
    /// documents passages point into, with their URLs.
    pub fn store(&self) -> Option<&DocumentStore> {
        self.store.as_ref()
    }

    /// Runs the indexation phase over a corpus.
    pub fn index_corpus(&mut self, store: DocumentStore) {
        self.index = Some(QaIndex::build(
            &self.lexicon,
            &store,
            self.config.passage_window,
        ));
        self.store = Some(store);
    }

    fn indexed(&self) -> (&QaIndex, &DocumentStore) {
        (
            self.index.as_ref().expect("index_corpus must run first"),
            self.store.as_ref().expect("index_corpus must run first"),
        )
    }

    /// Module 1 on its own.
    pub fn analyze(&self, question: &str) -> QuestionAnalysis {
        analyze_question(&self.lexicon, &self.ontology, &self.patterns, question)
    }

    /// Module 2 on its own. If the main SBs alone retrieve nothing, the
    /// focus noun joins the query as a fallback (the paper\'s "semantic
    /// preference": hyponyms of the focus are likelier near its name).
    /// The query is compiled once against the retriever's interned
    /// vocabulary — no term strings are cloned. Index-pruning counters
    /// (candidate/pruned documents, windows scored) are recorded by the
    /// retrieval itself as `retrieve` span fields and `retrieval.*`
    /// registry counters (see `dwqa-obs`), so nothing is hand-threaded
    /// back to the caller.
    pub fn passages(&self, analysis: &QuestionAnalysis) -> Vec<Passage> {
        let (index, _) = self.indexed();
        let query = index.passages.compile_query(analysis.weighted_term_refs());
        let (passages, _) = index
            .passages
            .retrieve_query(&query, self.config.passages_k);
        if !passages.is_empty() {
            return passages;
        }
        let Some(focus) = &analysis.focus else {
            return passages;
        };
        let query = index.passages.compile_query(
            analysis
                .weighted_term_refs()
                .chain(std::iter::once((focus.as_str(), 1.0))),
        );
        index
            .passages
            .retrieve_query(&query, self.config.passages_k)
            .0
    }

    /// Module 3 on its own: extracts typed answers from the passages.
    pub fn extract(&self, analysis: &QuestionAnalysis, passages: &[Passage]) -> Vec<Answer> {
        let (index, store) = self.indexed();
        extract_answers(
            analysis,
            index,
            store,
            &self.ontology,
            passages,
            self.config.answers_k,
        )
    }

    /// The full search phase: analyse → select passages → extract.
    pub fn answer(&self, question: &str) -> Vec<Answer> {
        let analysis = self.analyze(question);
        let passages = self.passages(&analysis);
        self.extract(&analysis, &passages)
    }

    /// Runs the pipeline and records every intermediate artefact — the
    /// regeneration of the paper's Table 1.
    pub fn trace(&self, question: &str) -> PipelineTrace {
        let analysis = self.analyze(question);
        let passages = self.passages(&analysis);
        let answers = self.extract(&analysis, &passages);
        let query_analysis = render_annotated(&analysis.sentence.tokens, &analysis.sentence.blocks);
        let (passage_text, passage_analysis) = match passages.first() {
            Some(p) => {
                let rendered = p
                    .sentences
                    .iter()
                    .map(|s| {
                        let a = analyze_sentence(&self.lexicon, s);
                        render_annotated(&a.tokens, &a.blocks)
                    })
                    .collect::<Vec<_>>()
                    .join(" ");
                (p.text(), rendered)
            }
            None => (String::new(), String::new()),
        };
        PipelineTrace {
            query: analysis.question.clone(),
            query_analysis,
            question_pattern: analysis.pattern_description.clone(),
            expected_answer_type: analysis.answer_type.expectation().to_owned(),
            main_sbs: analysis.main_sbs.iter().map(|s| s.text.clone()).collect(),
            passage: passage_text,
            passage_analysis,
            extracted_answers: answers.iter().map(Answer::tuple_format).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::temperature_pattern;
    use dwqa_ir::{DocFormat, Document};
    use dwqa_ontology::upper_ontology;

    fn system() -> AliQAn {
        let mut ontology = upper_ontology();
        let airport = ontology.class_for("airport").unwrap();
        let bcn = ontology.concepts_for("Barcelona")[0];
        let el_prat = ontology.add_concept(
            &["El Prat"],
            "an airport from the data warehouse",
            dwqa_ontology::OntoPos::Noun,
            dwqa_ontology::ConceptKind::Instance,
        );
        ontology.relate(el_prat, dwqa_ontology::Relation::InstanceOf, airport);
        ontology.relate(el_prat, dwqa_ontology::Relation::Meronym, bcn);
        let mut qa = AliQAn::new(ontology, AliQAnConfig::default());
        qa.tune(temperature_pattern());
        let mut store = DocumentStore::new();
        store.add(Document::new(
            "http://www.barcelona-tourist-guide.com/en/weather/weather-january.html",
            DocFormat::Plain,
            "",
            "Saturday, January 31, 2004\n\
             Barcelona Weather: Temperature 8º C around 46.4 F Clear skies today",
        ));
        qa.index_corpus(store);
        qa
    }

    #[test]
    fn end_to_end_answer() {
        let qa = system();
        let answers = qa.answer("What is the weather like in January of 2004 in El Prat?");
        assert!(!answers.is_empty());
        assert!(answers[0].tuple_format().contains("8ºC"));
    }

    #[test]
    fn trace_regenerates_table_1_rows() {
        let qa = system();
        let trace = qa.trace("What is the weather like in January of 2004 in El Prat?");
        assert!(trace.query_analysis.contains("What WP what"));
        assert!(trace.query_analysis.contains("weather NN weather"));
        assert!(trace.query_analysis.contains("El NP el"));
        assert_eq!(
            trace.question_pattern,
            "[WHAT | HOW] [to be] [synonym of weather | temperature] …"
        );
        assert_eq!(trace.expected_answer_type, "Number + [ºC | F]");
        assert!(trace.main_sbs.iter().any(|s| s == "El Prat"));
        assert!(trace.main_sbs.iter().any(|s| s == "Barcelona"));
        assert!(trace.passage.contains("Temperature 8º C"));
        assert!(trace.passage_analysis.contains("Barcelona NP barcelona"));
        assert!(!trace.extracted_answers.is_empty());
        assert!(trace.extracted_answers[0].contains("8ºC"));
        assert!(trace.extracted_answers[0].contains("Barcelona"));
        // The rendered table mentions every row header.
        let rendered = trace.render();
        assert!(rendered.contains("Question pattern"));
        assert!(rendered.contains("Expected answer type"));
        assert!(rendered.contains("Extracted answer"));
    }

    #[test]
    fn tuning_changes_the_matched_pattern() {
        let mut ontology = upper_ontology();
        let _ = &mut ontology;
        let mut qa = AliQAn::new(upper_ontology(), AliQAnConfig::default());
        let mut store = DocumentStore::new();
        store.add(Document::new("u", DocFormat::Plain, "", "x"));
        qa.index_corpus(store);
        let before = qa.analyze("What is the temperature in Barcelona?");
        assert_ne!(before.pattern_name, "weather-temperature");
        qa.tune(temperature_pattern());
        let after = qa.analyze("What is the temperature in Barcelona?");
        assert_eq!(after.pattern_name, "weather-temperature");
    }
}
