use std::error::Error;
use std::fmt;
use std::time::Duration;

use serenity_ir::GraphError;

use crate::ScheduleStats;

/// Errors produced by the SERENITY schedulers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// Every path was pruned by the soft budget τ: the budget is below the
    /// optimal peak µ* (Algorithm 2's `'no solution'` flag).
    NoSolution {
        /// The budget that admitted no schedule, in bytes.
        budget: u64,
    },
    /// A search step exceeded the per-step time limit `T` (Algorithm 2's
    /// `'timeout'` flag), or the state table outgrew the configured cap.
    Timeout {
        /// Search step at which the limit was hit.
        step: usize,
        /// Elapsed wall-clock time in the offending step.
        elapsed: Duration,
    },
    /// The adaptive budget meta-search exhausted its round limit without a
    /// DP solution; the caller may fall back to the hard-budget schedule.
    BudgetSearchExhausted {
        /// Number of rounds attempted.
        rounds: usize,
        /// The failed search's counters (the τ₀ beam run and every probe),
        /// so a fallback still reports the work it cost.
        stats: Box<ScheduleStats>,
    },
    /// The compile run's wall-clock deadline
    /// ([`CompileOptions::deadline`](crate::backend::CompileOptions))
    /// expired. Distinct from [`ScheduleError::Timeout`], which is the
    /// *per-search-step* soft limit that adaptive budgeting reacts to.
    DeadlineExceeded {
        /// Elapsed wall-clock time when the abort was observed.
        elapsed: Duration,
    },
    /// The run's shared [`CancelToken`](crate::backend::CancelToken) was
    /// triggered.
    Cancelled,
    /// The graph exceeds a backend's structural limit (e.g. the brute-force
    /// node cap).
    TooLarge {
        /// Nodes in the rejected graph.
        nodes: usize,
        /// The backend's limit.
        limit: usize,
    },
    /// The underlying graph is malformed.
    Graph(GraphError),
    /// A scheduling worker panicked and the panic was contained. The
    /// payload is the panic message (best effort); the offending
    /// candidate or rung is discarded rather than taking the process down.
    Panicked {
        /// Panic message recovered from the unwind payload.
        detail: String,
    },
    /// A search's live memo/frontier accounting crossed the caller's
    /// hard memory budget
    /// ([`CompileOptions::memory_budget`](crate::backend::CompileOptions)).
    /// The backend failed fast instead of letting the search arena grow
    /// unboundedly; the degradation ladder treats this like any other
    /// rung failure and falls through to a cheaper backend.
    MemoryBudgetExceeded {
        /// Live search-memory bytes observed when the budget tripped.
        used: u64,
        /// The configured budget in bytes.
        budget: u64,
    },
    /// The search was cut off by an incumbent ceiling
    /// ([`BoundHandle`](crate::backend::BoundHandle)): every surviving state
    /// was provably unable to beat a peak an earlier portfolio member (or a
    /// caller-provided seed) already achieved. This is a *loss*, not a
    /// failure — the pipeline, the portfolio and the rewrite scorer treat it
    /// as "the incumbent stands" and it must never surface to users.
    BoundBeaten {
        /// The incumbent peak (in bytes) that could not be beaten.
        bound: u64,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NoSolution { budget } => {
                write!(f, "no schedule fits within the soft budget of {budget} bytes")
            }
            ScheduleError::Timeout { step, elapsed } => {
                write!(f, "search step {step} exceeded its time limit after {elapsed:?}")
            }
            ScheduleError::BudgetSearchExhausted { rounds, .. } => {
                write!(f, "adaptive soft budgeting found no solution in {rounds} rounds")
            }
            ScheduleError::DeadlineExceeded { elapsed } => {
                write!(f, "compile deadline exceeded after {elapsed:?}")
            }
            ScheduleError::Cancelled => write!(f, "compilation was cancelled"),
            ScheduleError::TooLarge { nodes, limit } => {
                write!(f, "graph of {nodes} nodes exceeds the backend's limit of {limit}")
            }
            ScheduleError::Graph(e) => write!(f, "graph error: {e}"),
            ScheduleError::Panicked { detail } => {
                write!(f, "scheduling worker panicked: {detail}")
            }
            ScheduleError::MemoryBudgetExceeded { used, budget } => {
                write!(f, "search memory of {used} bytes exceeded the budget of {budget} bytes")
            }
            ScheduleError::BoundBeaten { bound } => {
                write!(f, "search cut off: cannot beat the incumbent peak of {bound} bytes")
            }
        }
    }
}

impl Error for ScheduleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScheduleError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ScheduleError {
    fn from(e: GraphError) -> Self {
        ScheduleError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ScheduleError::NoSolution { budget: 1024 };
        assert!(e.to_string().contains("1024"));
        let e = ScheduleError::Timeout { step: 7, elapsed: Duration::from_millis(3) };
        assert!(e.to_string().contains("step 7"));
        let e = ScheduleError::MemoryBudgetExceeded { used: 2048, budget: 1024 };
        assert!(e.to_string().contains("2048"));
        assert!(e.to_string().contains("1024"));
    }

    #[test]
    fn graph_error_converts() {
        let e: ScheduleError = GraphError::Empty.into();
        assert!(matches!(e, ScheduleError::Graph(GraphError::Empty)));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<ScheduleError>();
    }
}
