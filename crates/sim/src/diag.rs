//! Diagnostic failure helpers for engine hot paths.
//!
//! The simulator's panic discipline (enforced statically by `spsim-lint`
//! rule L5) is that a failure on an engine hot path must carry enough
//! context to debug a *simulated* program: at minimum the tail of the
//! merged virtual-time timeline, ideally engine state too. Three ways to
//! comply:
//!
//! * [`sim_panic!`] — like `panic!`, but appends the trace tail. For
//!   invariant violations where no engine handle is available (or where
//!   the engine's own report would re-take a lock the caller holds).
//! * `panic!("{}", engine.deadlock_report(...))` — engines with a
//!   diagnostic snapshot method use it directly; the lint recognizes
//!   `deadlock_report`/`tail_report` inside a `panic!` invocation.
//! * [`OrDiag::or_diag`] — drop-in replacement for `Option::expect` /
//!   `Result::expect` that panics with the message *plus* the trace tail,
//!   attributed to the caller's location.
//!
//! [`sim_panic!`] and [`OrDiag`] have no world at hand, so they show the
//! tail of the trace session held by the panicking thread
//! ([`crate::trace::tail_report`]) — on a pool worker or node thread that is
//! none, and the report says so. Engines and the queues a world builds
//! report through the world's own [`crate::trace::Tracer`] instead, which
//! works on any thread.

use std::fmt::Debug;

/// Panic with a formatted message followed by the trace timeline tail.
///
/// Use on engine hot paths instead of bare `panic!`: when the simulated
/// program dies mid-protocol, the last [`crate::trace::REPORT_TAIL`]
/// merged events are usually enough to see which message got stuck.
#[macro_export]
macro_rules! sim_panic {
    ($($arg:tt)*) => {
        ::std::panic!(
            "{}\n{}",
            ::std::format_args!($($arg)*),
            $crate::trace::tail_report($crate::trace::REPORT_TAIL)
        )
    };
}

/// `expect` with diagnostics: unwrap or panic with the message plus the
/// trace timeline tail, attributed to the call site.
pub trait OrDiag<T> {
    /// Unwrap the value, or panic with `what` and the trace tail.
    fn or_diag(self, what: &str) -> T;
}

impl<T> OrDiag<T> for Option<T> {
    #[track_caller]
    fn or_diag(self, what: &str) -> T {
        match self {
            Some(v) => v,
            None => fail(what, "None"),
        }
    }
}

impl<T, E: Debug> OrDiag<T> for Result<T, E> {
    #[track_caller]
    fn or_diag(self, what: &str) -> T {
        match self {
            Ok(v) => v,
            Err(e) => fail(what, &format!("{e:?}")),
        }
    }
}

#[cold]
#[track_caller]
fn fail(what: &str, got: &str) -> ! {
    panic!(
        "{what} (got {got})\n{}",
        crate::trace::tail_report(crate::trace::REPORT_TAIL)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_diag_passes_values_through() {
        assert_eq!(Some(3).or_diag("must exist"), 3);
        let r: Result<u8, ()> = Ok(7);
        assert_eq!(r.or_diag("must be ok"), 7);
    }

    #[test]
    fn or_diag_panics_with_trace_block() {
        let err = std::panic::catch_unwind(|| {
            let n: Option<u8> = None;
            n.or_diag("the frobnicator vanished")
        })
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("panic carries String");
        assert!(msg.contains("the frobnicator vanished"), "got: {msg}");
        assert!(msg.contains("-- trace:"), "tail report attached: {msg}");
    }

    #[test]
    fn sim_panic_formats_and_attaches_tail() {
        let err = std::panic::catch_unwind(|| {
            sim_panic!("bad state: {}", 42);
        })
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("panic carries String");
        assert!(msg.contains("bad state: 42"), "got: {msg}");
        assert!(msg.contains("-- trace:"), "tail report attached: {msg}");
    }
}
