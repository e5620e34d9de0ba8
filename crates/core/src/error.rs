//! The workspace-wide error taxonomy.
//!
//! Callers used to juggle crate-local enums — `FeedError` from the
//! Step-5 ETL and the service protocol errors — plus builder validation
//! failures. [`Error`] absorbs them all through `From` impls, so
//! application code matches **one** `#[non_exhaustive]` enum and `?`
//! does the lifting.
//! The inner errors are kept intact and exposed via
//! [`std::error::Error::source`], so nothing is stringly flattened.

use crate::feedback::FeedError;
use dwqa_common::ConfigError;
use std::fmt;

/// Any error the integrated DW ⇄ QA system can surface.
///
/// `#[non_exhaustive]`: downstream `match`es need a wildcard arm, so new
/// failure classes (and new subsystems) can be added without a breaking
/// release.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A Step-5 feedback transaction failed and was rolled back.
    Feed(FeedError),
    /// A builder rejected a configuration knob at `build()`.
    Config(ConfigError),
    /// A service wire-protocol violation (malformed request line,
    /// unknown request kind, missing field).
    Protocol(String),
    /// An I/O failure at a service or storage boundary.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Feed(e) => write!(f, "feedback: {e}"),
            Error::Config(e) => write!(f, "{e}"),
            Error::Protocol(why) => write!(f, "protocol: {why}"),
            Error::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Feed(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::Protocol(_) => None,
            Error::Io(e) => Some(e),
        }
    }
}

impl From<FeedError> for Error {
    fn from(e: FeedError) -> Error {
        Error::Feed(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Error {
        Error::Config(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn one_enum_absorbs_the_crate_local_errors() {
        fn fails_feed() -> Result<(), Error> {
            Err(FeedError::Etl("disk full".into()))?
        }
        fn fails_config() -> Result<(), Error> {
            Err(ConfigError::new("k", "must be positive"))?
        }
        assert!(matches!(fails_feed(), Err(Error::Feed(_))));
        assert!(matches!(fails_config(), Err(Error::Config(_))));
    }

    #[test]
    fn sources_are_chained_not_flattened() {
        let err = Error::from(FeedError::Etl("disk full".into()));
        let inner = err.source().map(|s| s.to_string()).unwrap_or_default();
        assert!(inner.contains("disk full"), "{inner}");
        assert!(err.to_string().starts_with("feedback:"));
        assert!(Error::Protocol("bad line".into()).source().is_none());
    }
}
