//! # shapefrag-govern
//!
//! Resource governance for the validation stack: wall-clock deadlines, step
//! and memory-estimate budgets, recursion-depth guards, and cooperative
//! cancellation, surfaced through the unified [`EngineError`] taxonomy.
//!
//! Every long-running kernel in the workspace (RPQ product-BFS, batch
//! conformance, neighborhood collection, SPARQL evaluation) accepts an
//! [`ExecCtx`] and calls [`ExecCtx::tick`] once per unit of work (queue pop,
//! produced binding, conformance check). Ticks are counted unconditionally;
//! the *expensive* checks — reading the clock and the cancellation flag —
//! run only every [`CHECK_STRIDE`] ticks, which keeps the overhead of
//! governance below the 5% budget documented in DESIGN.md §9.
//!
//! ```
//! use std::time::Duration;
//! use shapefrag_govern::{Budget, EngineError, ExecCtx};
//!
//! let ctx = ExecCtx::with_budget(Budget::default().steps(100));
//! let mut result = Ok(());
//! for _ in 0..1000 {
//!     result = ctx.tick(1);
//!     if result.is_err() {
//!         break;
//!     }
//! }
//! assert!(matches!(result, Err(EngineError::BudgetExceeded { .. })));
//! ```
#![forbid(unsafe_code)]

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many ticks pass between consultations of the clock and the
/// cancellation flag. A queue pop in the RPQ kernel costs tens of
/// nanoseconds, so a stride of 1024 bounds the observation latency for
/// deadlines and cancellation to well under a millisecond while making the
/// per-tick cost a counter decrement.
pub const CHECK_STRIDE: u32 = 1024;

/// Which budget was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The step budget (units of engine work).
    Steps,
    /// The memory-estimate budget (bytes of intermediate state).
    Memory,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::Steps => write!(f, "step"),
            BudgetKind::Memory => write!(f, "memory"),
        }
    }
}

/// Machine-readable classification of parse errors, shared across the
/// Turtle, N-Triples, SPARQL, and shapes-graph parsers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Generic syntax error (the default for positioned errors).
    Syntax,
    /// A character that cannot start or continue the expected token.
    UnexpectedChar,
    /// Input ended inside a statement or token.
    UnexpectedEof,
    /// A string literal was never closed.
    UnterminatedString,
    /// An IRI reference was never closed.
    UnterminatedIri,
    /// A malformed `\`-escape inside a string or IRI.
    InvalidEscape,
    /// A malformed numeric literal.
    InvalidNumber,
    /// A prefixed name used a prefix that was never declared.
    UndeclaredPrefix,
    /// Structurally invalid input (e.g. a literal in subject position, a
    /// malformed shapes-graph description).
    BadStructure,
    /// Nesting exceeded the parser's recursion-depth guard.
    DepthLimit,
}

impl ErrorCode {
    /// Stable identifier for diagnostics and machine consumption.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::Syntax => "syntax",
            ErrorCode::UnexpectedChar => "unexpected-char",
            ErrorCode::UnexpectedEof => "unexpected-eof",
            ErrorCode::UnterminatedString => "unterminated-string",
            ErrorCode::UnterminatedIri => "unterminated-iri",
            ErrorCode::InvalidEscape => "invalid-escape",
            ErrorCode::InvalidNumber => "invalid-number",
            ErrorCode::UndeclaredPrefix => "undeclared-prefix",
            ErrorCode::BadStructure => "bad-structure",
            ErrorCode::DepthLimit => "depth-limit",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// The unified error taxonomy surfaced by every governed entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A step or memory-estimate budget was exhausted.
    BudgetExceeded {
        /// Which budget ran out.
        kind: BudgetKind,
        /// The configured limit.
        limit: u64,
    },
    /// The wall-clock deadline passed.
    DeadlineExceeded {
        /// The configured deadline, in milliseconds.
        budget_ms: u64,
    },
    /// The request was cancelled through its [`CancelToken`].
    Cancelled,
    /// Recursion exceeded the configured depth guard.
    DepthLimit {
        /// The configured maximum depth.
        limit: u32,
    },
    /// The input could not be parsed or is structurally invalid.
    Malformed {
        /// Machine-readable classification.
        code: ErrorCode,
        /// 1-based line of the defect (0 when unknown).
        line: usize,
        /// 1-based column of the defect (0 when unknown).
        column: usize,
        /// Human-readable description.
        message: String,
    },
}

impl EngineError {
    /// Convenience constructor for positionless malformed-input errors.
    pub fn malformed(code: ErrorCode, message: impl Into<String>) -> Self {
        EngineError::Malformed {
            code,
            line: 0,
            column: 0,
            message: message.into(),
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BudgetExceeded { kind, limit } => {
                write!(f, "{kind} budget exceeded (limit {limit})")
            }
            EngineError::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline exceeded ({budget_ms}ms)")
            }
            EngineError::Cancelled => write!(f, "cancelled"),
            EngineError::DepthLimit { limit } => {
                write!(f, "recursion depth limit exceeded (limit {limit})")
            }
            EngineError::Malformed {
                code,
                line,
                column,
                message,
            } => {
                if *line == 0 {
                    write!(f, "malformed input [{code}]: {message}")
                } else {
                    write!(f, "malformed input [{code}] at {line}:{column}: {message}")
                }
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// A cooperative cancellation flag, cheap to clone and share across
/// threads. Setting it makes every governed kernel holding a clone return
/// [`EngineError::Cancelled`] within one check stride.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; may be called from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Declarative resource limits. `None`/unset fields are unlimited.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Maximum engine steps (queue pops, conformance checks, bindings).
    pub steps: Option<u64>,
    /// Maximum estimated bytes of intermediate state.
    pub memory_bytes: Option<u64>,
    /// Maximum wall-clock duration, measured from [`ExecCtx`] creation.
    pub deadline: Option<Duration>,
    /// Maximum recursion depth for shape/data traversal.
    pub max_depth: Option<u32>,
}

impl Budget {
    /// No limits at all (identical to `Budget::default()`).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Caps engine steps.
    pub fn steps(mut self, steps: u64) -> Self {
        self.steps = Some(steps);
        self
    }

    /// Caps the memory estimate, in bytes.
    pub fn memory_bytes(mut self, bytes: u64) -> Self {
        self.memory_bytes = Some(bytes);
        self
    }

    /// Sets a wall-clock deadline relative to context creation.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Caps recursion depth.
    pub fn max_depth(mut self, depth: u32) -> Self {
        self.max_depth = Some(depth);
        self
    }
}

/// Per-request execution context: a [`Budget`], an optional
/// [`CancelToken`], and the live counters. Single-threaded by design (the
/// counters are `Cell`s); share the *token* across threads, not the
/// context.
#[derive(Debug)]
pub struct ExecCtx {
    deadline: Option<Instant>,
    deadline_ms: u64,
    step_limit: u64,
    mem_limit: u64,
    depth_limit: u32,
    cancel: Option<CancelToken>,
    steps: Cell<u64>,
    mem: Cell<u64>,
    depth: Cell<u32>,
    until_check: Cell<u32>,
}

impl Default for ExecCtx {
    fn default() -> Self {
        ExecCtx::unbounded()
    }
}

impl ExecCtx {
    /// A context with no limits and no cancellation: `tick`/`charge`/`enter`
    /// can never fail. Used by the legacy (ungoverned) entry points.
    pub fn unbounded() -> Self {
        ExecCtx::with_budget(Budget::unlimited())
    }

    /// A context enforcing the given budget.
    pub fn with_budget(budget: Budget) -> Self {
        ExecCtx {
            deadline: budget.deadline.map(|d| Instant::now() + d),
            deadline_ms: budget.deadline.map(|d| d.as_millis() as u64).unwrap_or(0),
            step_limit: budget.steps.unwrap_or(u64::MAX),
            mem_limit: budget.memory_bytes.unwrap_or(u64::MAX),
            depth_limit: budget.max_depth.unwrap_or(u32::MAX),
            cancel: None,
            steps: Cell::new(0),
            mem: Cell::new(0),
            depth: Cell::new(0),
            until_check: Cell::new(CHECK_STRIDE),
        }
    }

    /// Attaches a cancellation token (builder style).
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Steps consumed so far.
    pub fn steps_used(&self) -> u64 {
        self.steps.get()
    }

    /// Estimated bytes charged so far.
    pub fn memory_used(&self) -> u64 {
        self.mem.get()
    }

    /// Current recursion depth.
    pub fn depth(&self) -> u32 {
        self.depth.get()
    }

    /// Records `n` units of work. Fails once the step budget is exhausted;
    /// every [`CHECK_STRIDE`] ticks it also consults the cancellation flag
    /// and the wall clock.
    #[inline]
    pub fn tick(&self, n: u64) -> Result<(), EngineError> {
        let steps = self.steps.get().saturating_add(n);
        self.steps.set(steps);
        if steps > self.step_limit {
            return Err(EngineError::BudgetExceeded {
                kind: BudgetKind::Steps,
                limit: self.step_limit,
            });
        }
        let until = u64::from(self.until_check.get());
        if until > n {
            self.until_check.set((until - n) as u32);
            Ok(())
        } else {
            self.until_check.set(CHECK_STRIDE);
            self.check_now()
        }
    }

    /// Consults the cancellation flag and the deadline immediately,
    /// bypassing the stride. Used at phase boundaries (per target shape,
    /// per source chunk) so even tick-free stretches stay responsive.
    pub fn check_now(&self) -> Result<(), EngineError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(EngineError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(EngineError::DeadlineExceeded {
                    budget_ms: self.deadline_ms,
                });
            }
        }
        Ok(())
    }

    /// Charges `bytes` against the memory-estimate budget.
    #[inline]
    pub fn charge(&self, bytes: u64) -> Result<(), EngineError> {
        let mem = self.mem.get().saturating_add(bytes);
        self.mem.set(mem);
        if mem > self.mem_limit {
            return Err(EngineError::BudgetExceeded {
                kind: BudgetKind::Memory,
                limit: self.mem_limit,
            });
        }
        Ok(())
    }

    /// Releases `bytes` of the memory estimate (freed intermediate state).
    #[inline]
    pub fn release(&self, bytes: u64) {
        self.mem.set(self.mem.get().saturating_sub(bytes));
    }

    /// Enters one recursion level; pair with [`ExecCtx::leave`] on every
    /// exit path. Also counts one step.
    #[inline]
    pub fn enter(&self) -> Result<(), EngineError> {
        let d = self.depth.get() + 1;
        if d > self.depth_limit {
            return Err(EngineError::DepthLimit {
                limit: self.depth_limit,
            });
        }
        self.depth.set(d);
        self.tick(1)
    }

    /// Leaves one recursion level.
    #[inline]
    pub fn leave(&self) {
        let d = self.depth.get();
        self.depth.set(d.saturating_sub(1));
    }
}

/// Scoped memory accounting: charges accumulate against the context and are
/// released automatically when the guard drops, on success and error paths
/// alike. Kernels create one guard per traversal whose intermediate
/// structures (visited sets, bit matrices, queues) die with the call.
pub struct MemGuard<'a> {
    ctx: &'a ExecCtx,
    bytes: u64,
}

impl<'a> MemGuard<'a> {
    /// A guard with nothing charged yet.
    pub fn new(ctx: &'a ExecCtx) -> Self {
        MemGuard { ctx, bytes: 0 }
    }

    /// Charges `bytes`, remembering them for release on drop.
    #[inline]
    pub fn charge(&mut self, bytes: u64) -> Result<(), EngineError> {
        self.bytes += bytes;
        self.ctx.charge(bytes)
    }

    /// Bytes charged through this guard so far.
    pub fn charged(&self) -> u64 {
        self.bytes
    }
}

impl Drop for MemGuard<'_> {
    fn drop(&mut self) {
        self.ctx.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_fails() {
        let ctx = ExecCtx::unbounded();
        for _ in 0..10_000 {
            ctx.tick(7).unwrap();
        }
        ctx.charge(u64::MAX / 2).unwrap();
        ctx.enter().unwrap();
        ctx.leave();
    }

    #[test]
    fn step_budget_trips() {
        let ctx = ExecCtx::with_budget(Budget::unlimited().steps(10));
        let mut last = Ok(());
        for _ in 0..20 {
            last = ctx.tick(1);
            if last.is_err() {
                break;
            }
        }
        assert_eq!(
            last,
            Err(EngineError::BudgetExceeded {
                kind: BudgetKind::Steps,
                limit: 10
            })
        );
    }

    #[test]
    fn memory_budget_trips_and_releases() {
        let ctx = ExecCtx::with_budget(Budget::unlimited().memory_bytes(100));
        ctx.charge(60).unwrap();
        ctx.release(30);
        ctx.charge(60).unwrap();
        assert!(matches!(
            ctx.charge(60),
            Err(EngineError::BudgetExceeded {
                kind: BudgetKind::Memory,
                ..
            })
        ));
    }

    #[test]
    fn deadline_trips() {
        let ctx = ExecCtx::with_budget(Budget::unlimited().deadline(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            ctx.check_now(),
            Err(EngineError::DeadlineExceeded { .. })
        ));
        // The strided path sees it within one stride.
        let mut last = Ok(());
        for _ in 0..=CHECK_STRIDE {
            last = ctx.tick(1);
            if last.is_err() {
                break;
            }
        }
        assert!(matches!(last, Err(EngineError::DeadlineExceeded { .. })));
    }

    #[test]
    fn cancellation_observed_within_one_stride() {
        let token = CancelToken::new();
        let ctx = ExecCtx::unbounded().with_cancel(&token);
        ctx.tick(1).unwrap();
        token.cancel();
        let mut ticks = 0u32;
        let mut last = Ok(());
        while ticks <= 2 * CHECK_STRIDE {
            last = ctx.tick(1);
            ticks += 1;
            if last.is_err() {
                break;
            }
        }
        assert_eq!(last, Err(EngineError::Cancelled));
        assert!(ticks <= CHECK_STRIDE + 1);
    }

    #[test]
    fn depth_guard_trips() {
        let ctx = ExecCtx::with_budget(Budget::unlimited().max_depth(3));
        ctx.enter().unwrap();
        ctx.enter().unwrap();
        ctx.enter().unwrap();
        assert_eq!(ctx.enter(), Err(EngineError::DepthLimit { limit: 3 }));
        ctx.leave();
        ctx.leave();
        ctx.leave();
        assert_eq!(ctx.depth(), 0);
        ctx.enter().unwrap();
    }

    #[test]
    fn large_tick_still_checks() {
        let token = CancelToken::new();
        token.cancel();
        let ctx = ExecCtx::unbounded().with_cancel(&token);
        // A single tick larger than the stride must not skip the check.
        assert_eq!(
            ctx.tick(u64::from(CHECK_STRIDE) * 4),
            Err(EngineError::Cancelled)
        );
    }

    #[test]
    fn mem_guard_releases_on_drop() {
        let ctx = ExecCtx::with_budget(Budget::unlimited().memory_bytes(100));
        {
            let mut guard = MemGuard::new(&ctx);
            guard.charge(80).unwrap();
            assert_eq!(ctx.memory_used(), 80);
            assert!(guard.charge(80).is_err());
        }
        assert_eq!(ctx.memory_used(), 0);
        ctx.charge(90).unwrap();
    }

    #[test]
    fn errors_render() {
        assert_eq!(EngineError::Cancelled.to_string(), "cancelled");
        assert!(EngineError::malformed(ErrorCode::UnexpectedEof, "eof")
            .to_string()
            .contains("unexpected-eof"));
        assert!(EngineError::DepthLimit { limit: 5 }
            .to_string()
            .contains('5'));
    }
}
