//! Property test: the indexed scheduler (per-SPU ready lists under a
//! min-tree, bitset CPU sets, the exact revocable index and the
//! revocation-stamp bitset) decides exactly like the straightforward
//! scheduler it replaced.
//!
//! The reference model below reimplements that old semantics verbatim:
//! one flat ready list scanned linearly for the minimum `(priority band,
//! ready_seq)` in the home, sibling and global picks; the revocation
//! predicate evaluated over every loaned CPU; and revocation stamps set
//! by a full ascending sweep. Both are driven through identical random
//! sequences of enqueue, pick-and-run, deschedule, dequeue, decay,
//! stamp, take, revocation sweep and hotplug-plus-rebalance, on flat
//! and two-level SPU trees under all three schemes, and must agree after
//! every step on the pick, the revocable, idle and loaned CPU lists, the
//! stamps and the ready counts. The real scheduler's own
//! `check_invariants` runs after every step too. A long-list case queues
//! up to 200 processes on one or two SPUs across several priority
//! bands, so decays move keys deep inside the ready lists' heaps.

use std::sync::Arc;

use event_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use smp_kernel::sched::PRIORITY_BAND_MS;
use smp_kernel::{Pid, ProcTable, Process, Program, Scheduler};
use spu_core::{CpuAssignment, CpuPartition, Scheme, SharedCpuRotor, SpuId, SpuSet, SpuTree};

/// Processes in every generated run but the long-list ones.
const PROCS: u32 = 24;

/// One CPU of the reference model.
struct RefCpu {
    assignment: CpuAssignment,
    rotor: Option<SharedCpuRotor>,
    running: Option<Pid>,
    loaned: bool,
    online: bool,
}

impl RefCpu {
    fn new(assignment: CpuAssignment) -> Self {
        let rotor = match &assignment {
            CpuAssignment::TimeShared(entries) => Some(SharedCpuRotor::new(entries.clone())),
            CpuAssignment::Dedicated(_) => None,
        };
        RefCpu {
            assignment,
            rotor,
            running: None,
            loaned: false,
            online: true,
        }
    }

    fn homes(&self) -> Vec<SpuId> {
        self.assignment.home_spus()
    }
}

/// The pre-index scheduler: one flat ready list scanned linearly, and
/// every loaned CPU evaluated on every revocation question.
struct RefSched {
    scheme: Scheme,
    spus: SpuSet,
    cpus: Vec<RefCpu>,
    /// `(pid, ready_seq)` of every queued process.
    ready: Vec<(Pid, u64)>,
    seq: u64,
    stamps: Vec<Option<SimTime>>,
}

impl RefSched {
    fn new(scheme: Scheme, n_cpus: usize, spus: &SpuSet) -> Self {
        let partition = CpuPartition::compute(n_cpus, spus);
        RefSched {
            scheme,
            spus: spus.clone(),
            cpus: partition
                .assignments()
                .iter()
                .cloned()
                .map(RefCpu::new)
                .collect(),
            ready: Vec::new(),
            seq: 0,
            stamps: vec![None; n_cpus],
        }
    }

    fn ready_of(&self, procs: &ProcTable, spu: SpuId) -> usize {
        self.ready
            .iter()
            .filter(|&&(pid, _)| procs.get(pid).spu == spu)
            .count()
    }

    fn enqueue(&mut self, pid: Pid) {
        self.ready.push((pid, self.seq));
        self.seq += 1;
    }

    fn dequeue(&mut self, pid: Pid) -> bool {
        match self.ready.iter().position(|&(p, _)| p == pid) {
            Some(i) => {
                self.ready.remove(i);
                true
            }
            None => false,
        }
    }

    /// Removes and returns the queued process with the least
    /// `(band, ready_seq)` among those `eligible` admits.
    fn take_best(&mut self, procs: &ProcTable, eligible: impl Fn(SpuId) -> bool) -> Option<Pid> {
        let band = |pid: Pid| (procs.p_cpu(pid) / PRIORITY_BAND_MS) as i64;
        let (i, _) = self
            .ready
            .iter()
            .enumerate()
            .filter(|(_, &(pid, _))| eligible(procs.get(pid).spu))
            .min_by_key(|(_, &(pid, seq))| (band(pid), seq))?;
        Some(self.ready.remove(i).0)
    }

    fn pick(&mut self, procs: &ProcTable, cpu: usize) -> Option<(Pid, bool)> {
        if !self.cpus[cpu].online {
            return None;
        }
        if self.scheme == Scheme::Smp {
            return self.take_best(procs, |_| true).map(|p| (p, false));
        }
        let granted = match self.cpus[cpu].assignment.clone() {
            CpuAssignment::Dedicated(spu) => Some(spu),
            CpuAssignment::TimeShared(_) => {
                let counts: Vec<usize> = self
                    .spus
                    .all_ids()
                    .map(|s| self.ready_of(procs, s))
                    .collect();
                let rotor = self.cpus[cpu].rotor.as_mut().expect("shared CPU rotor");
                rotor.grant(|s| counts[s.index()] > 0)
            }
        };
        if let Some(spu) = granted {
            if let Some(pid) = self.take_best(procs, |s| s == spu) {
                return Some((pid, false));
            }
        }
        if self.scheme == Scheme::PIso {
            if let Some(tree) = self.spus.tree().cloned() {
                let homes = self.cpus[cpu].homes();
                let sibling = |s: SpuId| homes.iter().any(|&h| tree.siblings(h).any(|x| x == s));
                if let Some(pid) = self.take_best(procs, sibling) {
                    return Some((pid, true));
                }
            }
            return self.take_best(procs, |_| true).map(|p| (p, true));
        }
        None
    }

    fn needs_revocation(&self, procs: &ProcTable, cpu: usize) -> bool {
        let c = &self.cpus[cpu];
        let Some(running) = c.running else {
            return false;
        };
        if !c.online || !c.loaned {
            return false;
        }
        let waits = |s: SpuId| self.ready_of(procs, s) > 0;
        if c.homes().into_iter().any(waits) {
            return true;
        }
        let Some(tree) = self.spus.tree() else {
            return false;
        };
        let running_spu = procs.get(running).spu;
        c.homes()
            .into_iter()
            .any(|h| !tree.same_tenant(h, running_spu) && tree.siblings(h).any(waits))
    }

    fn loaned_cpus(&self) -> Vec<usize> {
        (0..self.cpus.len())
            .filter(|&i| {
                let c = &self.cpus[i];
                c.online && c.loaned && c.running.is_some()
            })
            .collect()
    }

    fn revocable_cpus(&self, procs: &ProcTable) -> Vec<usize> {
        self.loaned_cpus()
            .into_iter()
            .filter(|&i| self.needs_revocation(procs, i))
            .collect()
    }

    fn idle_cpus(&self) -> Vec<usize> {
        (0..self.cpus.len())
            .filter(|&i| self.cpus[i].online && self.cpus[i].running.is_none())
            .collect()
    }

    /// The old wake-up sweep: every loaned CPU, in ascending order.
    fn mark(&mut self, procs: &ProcTable, now: SimTime) -> bool {
        let mut any = false;
        for c in self.loaned_cpus() {
            if self.needs_revocation(procs, c) {
                any = true;
                if self.stamps[c].is_none() {
                    self.stamps[c] = Some(now);
                }
            }
        }
        any
    }

    fn rebalance(&mut self, procs: &ProcTable) {
        let online: Vec<usize> = (0..self.cpus.len())
            .filter(|&i| self.cpus[i].online)
            .collect();
        let partition = CpuPartition::compute(online.len(), &self.spus);
        for (&i, a) in online.iter().zip(partition.assignments()) {
            let fresh = RefCpu::new(a.clone());
            let c = &mut self.cpus[i];
            c.assignment = fresh.assignment;
            c.rotor = fresh.rotor;
            if let Some(pid) = c.running {
                c.loaned = self.scheme != Scheme::Smp && !a.is_home_of(procs.get(pid).spu);
            }
        }
    }
}

/// One generated step; raw draws are interpreted against the current
/// state so every op is valid by construction.
#[derive(Clone, Copy, Debug)]
enum Op {
    Enqueue { pick: u32 },
    Run { cpu: u32 },
    Deschedule { cpu: u32, ms: u32, requeue: bool },
    Dequeue { pick: u32 },
    Decay { ticks: u32 },
    Mark,
    Take { cpu: u32 },
    Sweep,
    Hotplug { cpu: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted mix decoded from a selector draw (the shim has no
    // `prop_oneof!`): wake-ups and dispatches dominate, as in a run.
    (0u32..24, 0u32..1024, 0u32..600, any::<bool>()).prop_map(|(sel, pick, ms, flag)| match sel {
        0..=5 => Op::Enqueue { pick },
        6..=10 => Op::Run { cpu: pick },
        11..=14 => Op::Deschedule {
            cpu: pick,
            ms,
            requeue: flag,
        },
        15 => Op::Dequeue { pick },
        16..=17 => Op::Decay { ticks: ms % 40 + 1 },
        18..=19 => Op::Mark,
        20 => Op::Take { cpu: pick },
        21..=22 => Op::Sweep,
        _ => Op::Hotplug { cpu: pick },
    })
}

/// A machine: scheme, CPU count, SPU weights, and (when `tenants > 0`)
/// a two-level tree splitting the users into that many tenants.
#[derive(Clone, Copy, Debug)]
struct Machine {
    scheme: Scheme,
    cpus: usize,
    users: usize,
    tenants: usize,
    weight_seed: u32,
}

fn machine_strategy(tree: bool) -> impl Strategy<Value = Machine> {
    (0u32..3, 1usize..=64, 1usize..=8, 1usize..=3, 0u32..1024).prop_map(
        move |(scheme, cpus, users, tenants, weight_seed)| Machine {
            scheme: [Scheme::Smp, Scheme::Quota, Scheme::PIso][scheme as usize],
            cpus,
            users: if tree { users.max(2) } else { users },
            tenants: if tree { tenants } else { 0 },
            weight_seed,
        },
    )
}

impl Machine {
    fn spus(&self) -> SpuSet {
        let weights: Vec<u32> = (0..self.users)
            .map(|u| (self.weight_seed >> (u % 8)) % 3 + 1)
            .collect();
        let set = SpuSet::with_weights(&weights);
        if self.tenants == 0 {
            return set;
        }
        let tenants = self.tenants.min(self.users);
        let tree = (0..tenants)
            .map(|t| {
                let leaves: Vec<u32> = (0..self.users as u32)
                    .filter(|u| *u as usize % tenants == t)
                    .collect();
                let ceiling = leaves.iter().map(|&u| weights[u as usize]).sum();
                (format!("t{t}"), ceiling, leaves)
            })
            .collect();
        set.with_tree(SpuTree::new(tree))
    }
}

/// Process `i`'s SPU: mostly user SPUs, with a few built-in (kernel and
/// shared) processes, which have no home CPU.
fn spu_of(i: u32, users: usize) -> SpuId {
    match i % 12 {
        11 => SpuId::KERNEL,
        7 => SpuId::SHARED,
        _ => SpuId::user(i % users as u32),
    }
}

fn collect(next: impl Fn(usize) -> Option<usize>) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(c) = next(from) {
        out.push(c);
        from = c + 1;
    }
    out
}

fn assert_same_state(s: &Scheduler, r: &RefSched, procs: &ProcTable, step: usize) {
    let revocable = collect(|c| s.next_revocable_cpu(c));
    assert_eq!(
        revocable,
        r.revocable_cpus(procs),
        "revocable at step {step}"
    );
    let idle = collect(|c| s.next_idle_cpu(c));
    assert_eq!(idle, r.idle_cpus(), "idle at step {step}");
    let loaned = collect(|c| s.next_loaned_cpu(c));
    assert_eq!(loaned, r.loaned_cpus(), "loaned at step {step}");
    for c in 0..s.cpu_count() {
        assert_eq!(
            s.revoke_request(c),
            r.stamps[c],
            "stamp of CPU {c} at step {step}"
        );
        assert_eq!(
            s.cpu(c).assignment,
            r.cpus[c].assignment,
            "assignment of CPU {c} at step {step}"
        );
    }
    assert_eq!(s.ready_count(), r.ready.len(), "ready count at step {step}");
    for spu in r.spus.all_ids() {
        assert_eq!(
            s.has_ready(spu),
            r.ready_of(procs, spu) > 0,
            "{spu} ready at step {step}"
        );
    }
    s.check_invariants(procs);
}

/// Paths one sequence exercised, so a dedicated test can show the
/// generator reaches the branches the indexes exist for.
#[derive(Default)]
struct Coverage {
    loans: u64,
    sibling_loans: u64,
    stamps: u64,
    sweep_revocations: u64,
    /// Decay ops that moved the band of a queued process other than its
    /// SPU's head.
    deep_decays: u64,
}

/// The band of every queued process that is not its SPU's head.
fn non_head_bands(r: &RefSched, procs: &ProcTable) -> Vec<(Pid, i64)> {
    let key = |pid: Pid, seq: u64| ((procs.p_cpu(pid) / PRIORITY_BAND_MS) as i64, seq);
    let head = |spu: SpuId| {
        r.ready
            .iter()
            .filter(|&&(pid, _)| procs.get(pid).spu == spu)
            .map(|&(pid, seq)| key(pid, seq))
            .min()
    };
    r.ready
        .iter()
        .filter(|&&(pid, seq)| head(procs.get(pid).spu) != Some(key(pid, seq)))
        .map(|&(pid, seq)| (pid, key(pid, seq).0))
        .collect()
}

/// Runs `pid` on `cpu` in both models.
fn run_on(
    s: &mut Scheduler,
    r: &mut RefSched,
    procs: &ProcTable,
    cpu: usize,
    pid: Pid,
    loaned: bool,
) {
    let c = s.cpu_mut(cpu);
    c.running = Some(pid);
    c.loaned = loaned;
    s.sync_cpu(procs, cpu);
    r.cpus[cpu].running = Some(pid);
    r.cpus[cpu].loaned = loaned;
}

/// Takes `cpu`'s running process off it in both models (the kernel's
/// deschedule), comparing the revocation stamps they hand back.
fn leave(s: &mut Scheduler, r: &mut RefSched, procs: &ProcTable, cpu: usize, step: usize) -> Pid {
    let c = s.cpu_mut(cpu);
    let pid = c.running.take().expect("running CPU");
    c.loaned = false;
    s.sync_cpu(procs, cpu);
    r.cpus[cpu].running = None;
    r.cpus[cpu].loaned = false;
    assert_eq!(
        s.take_revoke_request(cpu),
        r.stamps[cpu].take(),
        "taken stamp at step {step}"
    );
    pid
}

fn pick_both(
    s: &mut Scheduler,
    r: &mut RefSched,
    procs: &mut ProcTable,
    cpu: usize,
    step: usize,
) -> Option<(Pid, bool)> {
    let got = s.pick(procs, cpu);
    let want = r.pick(procs, cpu);
    assert_eq!(got, want, "pick on CPU {cpu} at step {step}");
    got
}

fn run_equivalence(m: Machine, ops: &[Op]) -> Coverage {
    run_equivalence_with(m, PROCS, &[], ops)
}

/// Runs `ops` over `n_procs` processes, process `i` starting with
/// `charges[i % len]` ms of CPU usage (none when `charges` is empty).
fn run_equivalence_with(m: Machine, n_procs: u32, charges: &[u32], ops: &[Op]) -> Coverage {
    let spus = m.spus();
    let mut s = Scheduler::new(m.scheme, m.cpus, &spus);
    let mut r = RefSched::new(m.scheme, m.cpus, &spus);
    let prog = Program::builder("p").build();
    let mut procs = ProcTable::new();
    for i in 0..n_procs {
        let spu = spu_of(i, m.users);
        procs.insert(Process::new(
            Pid(i),
            spu,
            None,
            Arc::clone(&prog),
            None,
            SimTime::ZERO,
        ));
        if !charges.is_empty() {
            procs.charge_p_cpu(Pid(i), charges[i as usize % charges.len()] as f64);
        }
    }
    let mut now = SimTime::ZERO;
    let mut cov = Coverage::default();
    // Processes neither queued nor running.
    let mut parked: Vec<Pid> = (0..n_procs).map(Pid).collect();
    for (step, &op) in ops.iter().enumerate() {
        now += SimDuration::from_millis(1);
        match op {
            Op::Enqueue { pick } => {
                if !parked.is_empty() {
                    let pid = parked.swap_remove(pick as usize % parked.len());
                    s.enqueue(&mut procs, pid);
                    r.enqueue(pid);
                }
            }
            Op::Run { cpu } => {
                let cpu = cpu as usize % m.cpus;
                if r.cpus[cpu].running.is_none() {
                    if let Some((pid, loaned)) = pick_both(&mut s, &mut r, &mut procs, cpu, step) {
                        cov.loans += loaned as u64;
                        if loaned
                            && spus.tree().is_some_and(|t| {
                                r.cpus[cpu]
                                    .homes()
                                    .iter()
                                    .any(|&h| t.same_tenant(h, procs.get(pid).spu))
                            })
                        {
                            cov.sibling_loans += 1;
                        }
                        run_on(&mut s, &mut r, &procs, cpu, pid, loaned);
                    }
                }
            }
            Op::Deschedule { cpu, ms, requeue } => {
                let cpu = cpu as usize % m.cpus;
                if r.cpus[cpu].running.is_some() {
                    let pid = leave(&mut s, &mut r, &procs, cpu, step);
                    procs.charge_p_cpu(pid, ms as f64);
                    if requeue {
                        s.enqueue(&mut procs, pid);
                        r.enqueue(pid);
                    } else {
                        parked.push(pid);
                    }
                }
            }
            Op::Dequeue { pick } => {
                let pid = Pid(pick % n_procs);
                let queued = r.dequeue(pid);
                assert_eq!(s.dequeue(&mut procs, pid), queued, "dequeue at step {step}");
                if queued {
                    parked.push(pid);
                }
            }
            Op::Decay { ticks } => {
                let before = non_head_bands(&r, &procs);
                for _ in 0..ticks {
                    s.decay_priorities(&mut procs);
                }
                let moved = |&(pid, band): &(Pid, i64)| {
                    (procs.p_cpu(pid) / PRIORITY_BAND_MS) as i64 != band
                };
                cov.deep_decays += before.iter().any(moved) as u64;
            }
            Op::Mark => {
                let any = r.mark(&procs, now);
                cov.stamps += any as u64;
                assert_eq!(s.mark_revocable(now), any, "mark at step {step}");
            }
            Op::Take { cpu } => {
                let cpu = cpu as usize % m.cpus;
                assert_eq!(
                    s.take_revoke_request(cpu),
                    r.stamps[cpu].take(),
                    "take at step {step}"
                );
            }
            Op::Sweep => {
                // The kernel's tick sweep: preempt and redispatch each
                // revocable CPU, reading the set live.
                let mut from = 0;
                loop {
                    let want = r.revocable_cpus(&procs).into_iter().find(|&c| c >= from);
                    let got = s.next_revocable_cpu(from);
                    assert_eq!(got, want, "sweep from {from} at step {step}");
                    let Some(c) = got else { break };
                    cov.sweep_revocations += 1;
                    let pid = leave(&mut s, &mut r, &procs, c, step);
                    s.enqueue(&mut procs, pid);
                    r.enqueue(pid);
                    if let Some((pid, loaned)) = pick_both(&mut s, &mut r, &mut procs, c, step) {
                        run_on(&mut s, &mut r, &procs, c, pid, loaned);
                    }
                    from = c + 1;
                }
            }
            Op::Hotplug { cpu } => {
                let cpu = cpu as usize % m.cpus;
                let online = r.cpus[cpu].online;
                let online_count = r.cpus.iter().filter(|c| c.online).count();
                if !online || online_count > 1 {
                    if online && r.cpus[cpu].running.is_some() {
                        let pid = leave(&mut s, &mut r, &procs, cpu, step);
                        s.enqueue(&mut procs, pid);
                        r.enqueue(pid);
                    }
                    s.set_online(&procs, cpu, !online);
                    r.cpus[cpu].online = !online;
                    s.rebalance(&procs);
                    r.rebalance(&procs);
                }
            }
        }
        assert_same_state(&s, &r, &procs, step);
    }
    cov
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flat SPU sets: home picks, the shared-CPU rotor, Quota idling,
    /// the PIso loan and the SMP global pick.
    #[test]
    fn indexed_scheduler_matches_reference_on_flat_spus(
        m in machine_strategy(false),
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        run_equivalence(m, &ops);
    }

    /// Two-level tenant trees: the sibling steal and the sibling and
    /// tenant terms of the revocation predicate.
    #[test]
    fn indexed_scheduler_matches_reference_on_tenant_trees(
        m in machine_strategy(true),
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        run_equivalence(m, &ops);
    }
}

/// A machine with one or two user SPUs and no tenant tree, for the
/// long-list case.
fn long_list_machine_strategy() -> impl Strategy<Value = Machine> {
    (0u32..3, 1usize..=4, 1usize..=2, 0u32..1024).prop_map(|(scheme, cpus, users, weight_seed)| {
        Machine {
            scheme: [Scheme::Smp, Scheme::Quota, Scheme::PIso][scheme as usize],
            cpus,
            users,
            tenants: 0,
            weight_seed,
        }
    })
}

/// Runs a long-list case: `n_procs` processes charged across bands 0–5,
/// all enqueued before `ops` run, so the ready lists start deep.
fn run_long_lists(m: Machine, n_procs: u32, charges: &[u32], ops: &[Op]) -> Coverage {
    let mut all: Vec<Op> = (0..n_procs).map(|i| Op::Enqueue { pick: i }).collect();
    all.extend_from_slice(ops);
    run_equivalence_with(m, n_procs, charges, &all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Long ready lists: up to 200 processes on one or two SPUs, charged
    /// across several bands, so decays reorder keys deep in the heaps.
    #[test]
    fn indexed_scheduler_matches_reference_on_long_lists(
        m in long_list_machine_strategy(),
        n_procs in 64u32..=200,
        charges in prop::collection::vec(0u32..720, 1..32),
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        run_long_lists(m, n_procs, &charges, &ops);
    }
}

/// Guards the long-list generator: some decay must move the band of a
/// queued process below its list's head, or the property above would
/// never reorder a heap's interior.
#[test]
fn long_lists_reorder_keys_below_the_head() {
    use proptest::test_runner::TestRng;
    let mut rng = TestRng::deterministic("sched_equivalence::long_lists");
    let charges = prop::collection::vec(0u32..720, 1..32);
    let ops = prop::collection::vec(op_strategy(), 200..300);
    let mut deep_decays = 0;
    for _ in 0..8 {
        let m = long_list_machine_strategy().generate(&mut rng);
        let n_procs = (64u32..=200).generate(&mut rng);
        let cov = run_long_lists(
            m,
            n_procs,
            &charges.generate(&mut rng),
            &ops.generate(&mut rng),
        );
        deep_decays += cov.deep_decays;
    }
    assert!(
        deep_decays > 20,
        "decays that moved a non-head band: {deep_decays}"
    );
}

/// Guards the generator itself: sequences must reach loans, sibling
/// loans, stamps and sweep revocations, or the properties above would
/// pass on the easy paths alone.
#[test]
fn generated_sequences_exercise_loans_and_revocations() {
    use proptest::test_runner::TestRng;
    let mut rng = TestRng::deterministic("sched_equivalence::coverage");
    let ops = prop::collection::vec(op_strategy(), 200..300);
    let mut total = Coverage::default();
    for tree in [false, true] {
        for _ in 0..12 {
            let mut m = machine_strategy(tree).generate(&mut rng);
            m.scheme = Scheme::PIso;
            let cov = run_equivalence(m, &ops.generate(&mut rng));
            total.loans += cov.loans;
            total.sibling_loans += cov.sibling_loans;
            total.stamps += cov.stamps;
            total.sweep_revocations += cov.sweep_revocations;
        }
    }
    assert!(total.loans > 50, "loans: {}", total.loans);
    assert!(
        total.sibling_loans > 5,
        "sibling loans: {}",
        total.sibling_loans
    );
    assert!(total.stamps > 20, "stamps: {}", total.stamps);
    assert!(
        total.sweep_revocations > 20,
        "sweep revocations: {}",
        total.sweep_revocations
    );
}
