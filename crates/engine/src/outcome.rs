//! The outcome taxonomy: how a question's answer attempt ended.

use dwqa_qa::Answer;
use std::any::Any;
use std::fmt;

/// How one question's answer attempt ended. Anything but
/// [`AnswerOutcome::Ok`] means the attempt failed and carries no
/// answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnswerOutcome {
    /// The full pipeline ran cleanly; answers are first-class.
    Ok,
    /// The per-question deadline expired before the pipeline finished.
    TimedOut,
    /// The question's worker panicked; the panic was isolated and the
    /// worker pool survived.
    Panicked,
}

impl AnswerOutcome {
    /// Whether the attempt completed cleanly.
    pub fn is_ok(&self) -> bool {
        matches!(self, AnswerOutcome::Ok)
    }

    /// A short lowercase label (stable; used by reports and the REPL).
    pub fn label(&self) -> &'static str {
        match self {
            AnswerOutcome::Ok => "ok",
            AnswerOutcome::TimedOut => "timed-out",
            AnswerOutcome::Panicked => "panicked",
        }
    }
}

impl fmt::Display for AnswerOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One question's answers plus how the attempt ended.
#[derive(Debug, Clone)]
pub struct QuestionReport {
    /// Extracted answers.
    pub answers: Vec<Answer>,
    /// How the attempt ended.
    pub outcome: AnswerOutcome,
    /// Human-readable failure detail, if any.
    pub detail: Option<String>,
}

impl QuestionReport {
    /// A clean result.
    pub fn ok(answers: Vec<Answer>) -> QuestionReport {
        QuestionReport {
            answers,
            outcome: AnswerOutcome::Ok,
            detail: None,
        }
    }

    /// The per-question deadline expired.
    pub fn timed_out(detail: &str) -> QuestionReport {
        QuestionReport {
            answers: Vec::new(),
            outcome: AnswerOutcome::TimedOut,
            detail: Some(detail.to_owned()),
        }
    }

    /// The worker panicked (isolated).
    pub fn panicked(detail: String) -> QuestionReport {
        QuestionReport {
            answers: Vec::new(),
            outcome: AnswerOutcome::Panicked,
            detail: Some(detail),
        }
    }
}

/// Extracts a readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_display() {
        assert_eq!(AnswerOutcome::Ok.to_string(), "ok");
        assert_eq!(AnswerOutcome::TimedOut.label(), "timed-out");
        assert_eq!(AnswerOutcome::Panicked.to_string(), "panicked");
        assert!(AnswerOutcome::Ok.is_ok());
        assert!(!AnswerOutcome::TimedOut.is_ok());
    }

    #[test]
    fn constructors_set_outcome_and_detail() {
        assert_eq!(QuestionReport::ok(Vec::new()).outcome, AnswerOutcome::Ok);
        let r = QuestionReport::timed_out("after analysis");
        assert_eq!(r.outcome, AnswerOutcome::TimedOut);
        assert!(r.detail.unwrap().contains("analysis"));
        assert!(r.answers.is_empty());
    }

    #[test]
    fn panic_messages_are_extracted() {
        let payload: Box<dyn Any + Send> = Box::new("boom");
        assert_eq!(panic_message(payload.as_ref()), "boom");
        let payload: Box<dyn Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(panic_message(payload.as_ref()), "kaboom");
        let payload: Box<dyn Any + Send> = Box::new(42u8);
        assert!(panic_message(payload.as_ref()).contains("unknown"));
    }
}
