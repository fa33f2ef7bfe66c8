//! Cooperative cancellation for long-running checker searches.
//!
//! A [`CancelToken`] carries an optional wall-clock deadline and a manual
//! cancel flag.  The explorer ([`crate::multiquery`]) polls it before and
//! after an exploration and every few thousand pops inside it, and a fired
//! token makes the engine *unwind* with a [`Cancelled`] payload instead of
//! returning partial resolutions.  Nothing computed under a
//! fired token is ever observable (and therefore never cacheable) by the
//! staged pipeline: the unwind crosses the infallible stage traits without
//! touching their insert paths.
//!
//! Callers that need a typed error instead of an unwind wrap the work in
//! [`catch_cancel`], which converts the `Cancelled` payload into
//! `Err(Cancelled)` and re-raises every other panic untouched.
//!
//! The token is deliberately **excluded from the checker's `Debug`
//! rendering**: the pipeline's content-addressed artifact keys hash the
//! Debug output of the checker configuration, and a per-request deadline
//! must not fragment the cache or perturb bit-identity.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Unwind payload raised by [`CancelToken::checkpoint`]; also the typed
/// error returned by [`catch_cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "search cancelled (deadline expired or caller cancelled)")
    }
}

impl std::error::Error for Cancelled {}

struct CancelState {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

/// A cheaply clonable cooperative cancellation handle.
///
/// The default token ([`CancelToken::none`]) is inert: it never fires,
/// costs one `Option` check per poll, and is what every checker carries
/// unless a deadline-aware caller installs a live one.
#[derive(Clone, Default)]
pub struct CancelToken {
    state: Option<Arc<CancelState>>,
}

impl CancelToken {
    /// The inert token: never cancelled.
    pub fn none() -> CancelToken {
        CancelToken::default()
    }

    /// A live token with no deadline; fires only via [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken {
            state: Some(Arc::new(CancelState {
                flag: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// A live token that fires once the wall clock passes `deadline` (or
    /// earlier via [`CancelToken::cancel`]).
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            state: Some(Arc::new(CancelState {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
            })),
        }
    }

    /// Fires the token manually.  Inert tokens ignore the call.
    pub fn cancel(&self) {
        if let Some(state) = &self.state {
            state.flag.store(true, Ordering::Release);
        }
    }

    /// Whether the token has fired (manual cancel or expired deadline).
    pub fn is_cancelled(&self) -> bool {
        match &self.state {
            None => false,
            Some(state) => {
                state.flag.load(Ordering::Acquire)
                    || state.deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
    }

    /// Polls the token and unwinds with [`Cancelled`] if it has fired.
    ///
    /// The unwind bypasses the panic hook (no spurious backtrace on an
    /// ordinary deadline) and is meant to be caught by [`catch_cancel`] at
    /// the pipeline boundary.
    pub fn checkpoint(&self) {
        if self.is_cancelled() {
            resume_unwind(Box::new(Cancelled));
        }
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Constant rendering on purpose: see the module docs — the token
        // must never leak into Debug-derived artifact keys.
        f.write_str("CancelToken")
    }
}

/// Runs `f`, converting a [`Cancelled`] unwind into `Err(Cancelled)`.
/// Any other panic is re-raised unchanged.
///
/// # Errors
///
/// Returns [`Cancelled`] when `f` (or a thread it joined) unwound via
/// [`CancelToken::checkpoint`].
pub fn catch_cancel<R>(f: impl FnOnce() -> R) -> Result<R, Cancelled> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(value) => Ok(value),
        Err(payload) => match payload.downcast::<Cancelled>() {
            Ok(_) => Err(Cancelled),
            Err(other) => resume_unwind(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn inert_token_never_fires() {
        let t = CancelToken::none();
        t.cancel();
        assert!(!t.is_cancelled());
        t.checkpoint(); // must not unwind
    }

    #[test]
    fn manual_cancel_fires_for_every_clone() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn expired_deadline_fires() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let future = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!future.is_cancelled());
    }

    #[test]
    fn catch_cancel_converts_the_unwind_into_a_typed_error() {
        let t = CancelToken::new();
        t.cancel();
        let result = catch_cancel(|| {
            t.checkpoint();
            42
        });
        assert_eq!(result, Err(Cancelled));
        assert_eq!(catch_cancel(|| 42), Ok(42));
    }

    #[test]
    fn debug_rendering_is_constant() {
        // Artifact keys hash the checker's Debug output; the token must
        // render identically whether inert, live, cancelled or deadlined.
        let fired = CancelToken::new();
        fired.cancel();
        for t in [
            CancelToken::none(),
            CancelToken::new(),
            fired,
            CancelToken::with_deadline(Instant::now()),
        ] {
            assert_eq!(format!("{t:?}"), "CancelToken");
        }
    }
}
