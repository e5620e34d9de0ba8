//! Interactive demo: the integrated system as a console REPL.
//!
//! Builds the standard fixture (seeded corpus + correlated sales +
//! five-step pipeline) and answers questions from stdin through a
//! [`dwqa_engine::QaSession`] (cached, instrumented). Commands:
//!
//! * plain text — ask the QA system, feed valid tuples into the DW;
//! * `:trace <question>` — print the Table-1 pipeline trace;
//! * `:trace` — print the span tree of the most recent question from
//!   the flight recorder (every question is traced: timings, retrieval
//!   pruning, cache disposition);
//! * `:bands` — the sales-vs-temperature analysis on current DW contents;
//! * `:missing` — DW-proposed questions for January 2004;
//! * `:stats` — per-stage latency histograms, cache counters, outcome
//!   taxonomy and resilience counters (rollbacks, worker deaths);
//! * `:persist <path>` — attach a durable feedback store at `path`:
//!   recovers any existing checkpoint + WAL first, then WAL-logs every
//!   committed feed before acknowledging it;
//! * `:recover <path>` — alias of `:persist` that reads more naturally
//!   after a crash: replay the store at `path` into this session;
//! * `:serve <port>` — hand the pipeline to a `dwqa-server` and serve
//!   the JSON-lines protocol on `127.0.0.1:<port>` until a client
//!   sends `drain` (the REPL exits once the drain completes);
//! * `:replicas <addr>` — ask a running server for its replication
//!   topology (role, mode, generation, per-peer ack positions and lag);
//! * `:promote <addr>` — promote the standby at `addr` to primary
//!   (fences the old primary's generation);
//! * `:quit`.
//!
//! Run with: `cargo run --release -p dwqa-bench --bin dwqa_repl`

use dwqa_bench::{build_fixture, FixtureConfig};
use dwqa_common::Month;
use dwqa_corpus::PageStyle;
use dwqa_engine::QaSession;
use dwqa_server::{QaClient, QaServer, ServerConfig};
use std::io::{BufRead, Write};
use std::sync::Arc;

fn main() {
    println!("Building the integrated pipeline (seeded corpus + DW)…");
    let mut fx = build_fixture(FixtureConfig {
        styles: vec![PageStyle::Prose],
        intranet: true,
        ..FixtureConfig::default()
    });
    let mut session = QaSession::new(&fx.pipeline);
    // Trace every question into the flight recorder; bare `:trace`
    // prints the latest span tree.
    session.engine().set_tracing(true);
    println!(
        "Ready: {} documents indexed, {} ontology instances fed, {} sales rows.\n\
         Ask a question (e.g. \"What is the temperature on January 15, 2004 in Barcelona?\"),\n\
         or :trace [question] / :bands / :missing / :stats / :persist <path>\n\
         / :recover <path> / :serve <port> / :replicas <addr> / :promote <addr> / :quit.",
        fx.corpus_size,
        fx.pipeline.enrichment.instances_added,
        fx.pipeline
            .warehouse
            .fact("Last Minute Sales")
            .map(|f| f.len())
            .unwrap_or(0),
    );
    let stdin = std::io::stdin();
    let mut serve_port: Option<u16> = None;
    loop {
        print!("dwqa> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" || line == ":q" {
            break;
        }
        if line == ":bands" {
            // Observe against the session registry so the roll-up
            // counters land in `:stats`.
            let _obs = dwqa_obs::observe(
                Some(Arc::clone(session.stats().registry())),
                None,
                "analysis",
                ":bands",
            );
            match fx.pipeline.sales_by_temperature_band(5.0) {
                Ok(bands) if bands.is_empty() => {
                    println!("(no weather rows yet — ask some temperature questions first)")
                }
                Ok(bands) => println!("{}", dwqa_core::analysis::render_bands(&bands)),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if line == ":missing" {
            let _obs = dwqa_obs::observe(
                Some(Arc::clone(session.stats().registry())),
                None,
                "analysis",
                ":missing",
            );
            match fx.pipeline.missing_weather_questions(2004, Month::January) {
                Ok(qs) if qs.is_empty() => println!("(weather coverage is complete)"),
                Ok(qs) => {
                    for q in qs {
                        println!("  {q}");
                    }
                }
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if line == ":stats" {
            print!("{}", session.stats().render());
            println!(
                "feed: {} transaction rollback(s) on this pipeline",
                fx.pipeline.rollbacks()
            );
            println!(
                "session: {} question(s) asked, cache holds {} entr(ies)",
                session.history().len(),
                session.engine().cache().len()
            );
            continue;
        }
        let persist = line
            .strip_prefix(":persist ")
            .or_else(|| line.strip_prefix(":recover "));
        if let Some(path) = persist {
            let path = path.trim();
            if path.is_empty() {
                println!("usage: :persist <directory>  (or :recover <directory>)");
                continue;
            }
            match fx.pipeline.attach_store_at(path) {
                Ok(report) => {
                    if report.checkpoint_loaded || report.transactions_replayed > 0 {
                        println!(
                            "recovered from {path}: checkpoint {}, {} transaction(s) replayed, \
                             {} row(s) loaded (generation {})",
                            if report.checkpoint_loaded {
                                "loaded"
                            } else {
                                "absent"
                            },
                            report.transactions_replayed,
                            report.rows_loaded,
                            report.generation,
                        );
                    } else {
                        println!("durable store attached at {path} (fresh)");
                    }
                    if report.torn_bytes > 0
                        || report.stale_skipped > 0
                        || report.duplicates_skipped > 0
                    {
                        println!(
                            "  WAL hygiene: {} torn byte(s) truncated, {} stale record(s) \
                             skipped, {} duplicate(s) skipped",
                            report.torn_bytes, report.stale_skipped, report.duplicates_skipped,
                        );
                    }
                    println!("  feeds are now WAL-logged before being acknowledged");
                }
                Err(e) => println!("cannot attach store at {path}: {e}"),
            }
            continue;
        }
        if let Some(port) = line.strip_prefix(":serve ") {
            match port.trim().parse::<u16>() {
                Ok(port) => {
                    serve_port = Some(port);
                    break;
                }
                Err(_) => println!("usage: :serve <port>"),
            }
            continue;
        }
        if let Some(addr) = line.strip_prefix(":replicas ") {
            let addr = addr.trim();
            match QaClient::connect(addr).and_then(|mut c| {
                c.replicas()
                    .map_err(|e| std::io::Error::other(e.to_string()))
            }) {
                Ok(resp) => match resp.replicas {
                    Some(r) => {
                        println!(
                            "  {} ({}), generation {}, position {}{}{}",
                            r.role,
                            r.mode,
                            r.generation,
                            r.next_seq,
                            r.lag
                                .map(|l| format!(", lag {l} frame(s)"))
                                .unwrap_or_default(),
                            r.primary
                                .map(|p| format!(", primary at {p}"))
                                .unwrap_or_default(),
                        );
                        for peer in &r.peers {
                            println!(
                                "    peer {}: acked {}, lag {} frame(s), {}",
                                peer.addr,
                                peer.acked_seq,
                                peer.lag,
                                if peer.connected {
                                    "connected"
                                } else {
                                    "disconnected"
                                },
                            );
                        }
                        if r.peers.is_empty() && r.role == "primary" {
                            println!("    (no standbys subscribed)");
                        }
                    }
                    None => println!("no replication state at {addr}"),
                },
                Err(e) => println!("replicas {addr}: {e}"),
            }
            continue;
        }
        if let Some(addr) = line.strip_prefix(":promote ") {
            let addr = addr.trim();
            match QaClient::connect(addr).and_then(|mut c| {
                c.promote()
                    .map_err(|e| std::io::Error::other(e.to_string()))
            }) {
                Ok(resp) => match resp.detail {
                    Some(detail) => println!("  {addr}: {detail}"),
                    None => println!("  {addr}: {:?}", resp.status),
                },
                Err(e) => println!("promote {addr}: {e}"),
            }
            continue;
        }
        if line == ":trace" {
            let recorder = session.engine().flight_recorder();
            match recorder.last() {
                Some(trace) => {
                    print!("{}", trace.render_tree());
                    println!(
                        "(flight recorder holds {} of up to {} traces)",
                        recorder.len(),
                        recorder.capacity()
                    );
                }
                None => println!("(no questions traced yet — ask one first)"),
            }
            continue;
        }
        if let Some(q) = line.strip_prefix(":trace ") {
            println!("{}", session.trace(q).render());
            continue;
        }
        let report = session.ask_checked(line);
        if !report.outcome.is_ok() {
            let detail = report.detail.as_deref().unwrap_or("no detail");
            println!("  [{}] {}", report.outcome, detail);
        }
        let answers = report.answers;
        if answers.is_empty() {
            println!("no answer found");
            continue;
        }
        for a in answers.iter().take(3) {
            println!("  {}  (score {:.2}, {})", a.tuple_format(), a.score, a.url);
        }
        let report = fx.pipeline.apply_feedback(&answers);
        if report.loaded > 0 {
            println!(
                "  → {} tuple(s) fed into the City Weather star",
                report.loaded
            );
        }
    }
    if let Some(port) = serve_port {
        // The session only holds read-path clones, so the pipeline can
        // move into the server; the REPL becomes the service process.
        drop(session);
        let cfg = match ServerConfig::builder().tracing(true).build() {
            Ok(cfg) => cfg,
            Err(e) => {
                println!("server config: {e}");
                return;
            }
        };
        match QaServer::start(fx.pipeline, cfg, ("127.0.0.1", port)) {
            Ok(server) => {
                println!(
                    "serving on {} — JSON-lines protocol (ask/batch/feedback/stats/drain);\n\
                     send a drain request to stop, e.g.:\n\
                     printf '{{\"id\":1,\"kind\":\"drain\"}}\\n' | nc 127.0.0.1 {port}",
                    server.local_addr()
                );
                let registry = std::sync::Arc::clone(server.metrics());
                // `serve` (not `join`) — block until a client sends
                // `drain`, rather than initiating the drain ourselves.
                let drained = server.serve();
                println!(
                    "drained: {} request(s), {} admitted, {} shed, {} rate-limited, {} completed, \
                     {} idle disconnect(s)",
                    registry.counter_value(dwqa_obs::names::SERVER_REQUESTS),
                    registry.counter_value(dwqa_obs::names::SERVER_ADMITTED),
                    registry.counter_value(dwqa_obs::names::SERVER_SHED),
                    registry.counter_value(dwqa_obs::names::SERVER_RATE_LIMITED),
                    registry.counter_value(dwqa_obs::names::SERVER_COMPLETED),
                    registry.counter_value(dwqa_obs::names::SERVER_DISCONNECTS_TIMEOUT),
                );
                if let Some(pipeline) = drained {
                    println!(
                        "warehouse holds {} weather row(s) after the session",
                        pipeline
                            .warehouse
                            .fact("City Weather")
                            .map(|f| f.len())
                            .unwrap_or(0)
                    );
                }
            }
            Err(e) => println!("cannot bind 127.0.0.1:{port}: {e}"),
        }
    }
    println!("bye");
}
