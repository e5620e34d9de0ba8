//! The shared configuration-validation error.
//!
//! Every builder in the workspace follows one convention (DESIGN.md §6):
//! `T::builder() … .build() -> Result<T, ConfigError>`, validating
//! ranges at `build()` time instead of clamping silently or panicking
//! at first use. The error type lives here — the one crate everything
//! depends on — so `dwqa-qa`, `dwqa-core` and `dwqa-server` all
//! report invalid knobs the same way, and
//! `dwqa_core::Error` can absorb them all through a single `From`.

use std::fmt;

/// A configuration knob rejected by a builder's `build()` validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field, e.g. `"max_attempts"`.
    pub field: &'static str,
    /// Why the value is invalid, including the value itself.
    pub message: String,
}

impl ConfigError {
    /// A new validation error for `field`.
    pub fn new(field: &'static str, message: impl Into<String>) -> ConfigError {
        ConfigError {
            field,
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config: {}: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_field_and_message() {
        let e = ConfigError::new("max_attempts", "must be at least 1 (got 0)");
        assert_eq!(
            e.to_string(),
            "invalid config: max_attempts: must be at least 1 (got 0)"
        );
    }
}
