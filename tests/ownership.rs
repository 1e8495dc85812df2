//! Property coverage for the §13 flow-ownership authority: two thieves
//! racing for the same flows over random interleavings conserve every
//! packet and resolve deterministically by epoch.
//!
//! Two properties, two execution styles:
//!
//! * **Scripted interleavings** — both thieves' protocol steps (claim,
//!   reroute, release) are interleaved by a proptest-generated
//!   schedule, single-threaded, so the *same schedule replays to the
//!   same outcome* — the §13.2 determinism claim, checked literally by
//!   running every case twice — and claim exclusivity can be asserted
//!   after every step.
//! * **Free-running threads** — the two thieves race with real
//!   parallelism, and the packet ledger must still agree with the map:
//!   every flow's packets sit at exactly the shard the [`FlowMap`]
//!   names, nothing duplicated, nothing stranded.

use std::sync::{Arc, Barrier, Mutex};

use err_runtime::{ClaimToken, OwnerState, Ownership};
use proptest::prelude::*;

/// Flits-worth of payload each flow carries in the model ledger.
const PACKETS_PER_FLOW: u64 = 3;

/// One thief advanced one protocol stage at a time by the interleaving
/// script.
struct ScriptedThief {
    /// Claimant id and reroute destination: thieves pull flows home.
    me: usize,
    flows: Vec<usize>,
    cursor: usize,
    pending: Option<(usize, ClaimToken)>,
}

impl ScriptedThief {
    fn new(me: usize, flows: Vec<usize>) -> Self {
        Self {
            me,
            flows,
            cursor: 0,
            pending: None,
        }
    }

    /// Advances one stage: finish a pending claim (reroute + release)
    /// or take the next flow's claim. Returns `false` once this thief
    /// has processed its whole worklist. A won reroute is appended to
    /// `wins` as `(flow, winner)`, in global win order.
    fn step(
        &mut self,
        own: &Ownership,
        ledger: &mut [(usize, u64)],
        wins: &mut Vec<(usize, usize)>,
    ) -> bool {
        if let Some((flow, tok)) = self.pending.take() {
            if own.try_reroute(&tok, self.me) {
                // The reroute CAS is the linearization point: only the
                // winner moves the flow's packets (§13.2), and it does
                // so *before* releasing the claim — exactly the order
                // the runtime's extract/absorb handshake uses.
                ledger[flow].0 = self.me;
                wins.push((flow, self.me));
            }
            own.release(&tok);
            return true;
        }
        let Some(&flow) = self.flows.get(self.cursor) else {
            return false;
        };
        self.cursor += 1;
        // A lost claim consumes the step: the thief observed the flow
        // held and walks on without touching it.
        self.pending = own.try_claim(flow, self.me).map(|tok| (flow, tok));
        true
    }
}

#[derive(Debug, PartialEq)]
struct Outcome {
    homes: Vec<usize>,
    epochs: Vec<u32>,
    states: Vec<OwnerState>,
    ledger: Vec<(usize, u64)>,
    /// `(flow, winner)` per successful reroute, in win order.
    wins: Vec<(usize, usize)>,
}

/// Runs one full two-thief race under `schedule` (true = thief `a`
/// steps next) and returns everything observable about the outcome.
fn run_interleaving(
    n_flows: usize,
    shards: usize,
    a: usize,
    b: usize,
    schedule: &[bool],
) -> Outcome {
    let own = Ownership::new(n_flows, shards);
    // Every flow starts with its packets at the static home the map
    // names at epoch 0.
    let mut ledger: Vec<(usize, u64)> = (0..n_flows)
        .map(|f| (own.shard_of(f).expect("mapped"), PACKETS_PER_FLOW))
        .collect();
    let mut wins = Vec::new();
    let mut ta = ScriptedThief::new(a, (0..n_flows).collect());
    // The second thief walks in reverse so the two worklists meet in
    // the middle and contend for the same flows mid-protocol.
    let mut tb = ScriptedThief::new(b, (0..n_flows).rev().collect());
    let mut i = 0usize;
    loop {
        let a_first = schedule.get(i).copied().unwrap_or(i.is_multiple_of(2));
        i += 1;
        // Short-circuit: whoever goes first this round blocks the other
        // from also stepping, so the schedule really is an interleaving.
        let (first, second) = if a_first {
            (&mut ta, &mut tb)
        } else {
            (&mut tb, &mut ta)
        };
        let stepped =
            first.step(&own, &mut ledger, &mut wins) || second.step(&own, &mut ledger, &mut wins);
        if !stepped {
            break;
        }
        // Claim exclusivity (§13.1): never both thieves on one flow.
        if let (Some((fa, _)), Some((fb, _))) = (&ta.pending, &tb.pending) {
            assert_ne!(fa, fb, "both thieves hold flow {fa}'s claim");
        }
    }
    Outcome {
        homes: (0..n_flows).map(|f| own.shard_of(f).unwrap()).collect(),
        epochs: (0..n_flows).map(|f| own.map.epoch_of(f)).collect(),
        states: (0..n_flows).map(|f| own.owner_state(f)).collect(),
        ledger,
        wins,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// Scripted two-thief race: per flow, the epoch counts exactly the
    /// successful reroutes, every claim ends released, the packet
    /// ledger follows the map, and the whole outcome is a pure function
    /// of the schedule (replay ⇒ identical).
    #[test]
    fn scripted_race_conserves_and_replays_identically(
        n_flows in 2..32usize,
        shards in 2..6usize,
        a_sel in 0..64usize,
        b_sel in 0..64usize,
        schedule in prop::collection::vec(any::<bool>(), 0..192),
    ) {
        let (a, b) = (a_sel % shards, b_sel % shards);
        let out = run_interleaving(n_flows, shards, a, b, &schedule);

        for f in 0..n_flows {
            let won: Vec<usize> = out.wins.iter().filter(|w| w.0 == f).map(|w| w.1).collect();
            // Both thieves visit every flow, so at least one reroute
            // always lands; a contested flow yields exactly one winner
            // (the loser walks on), sequential visits one win each.
            prop_assert!((1..=2).contains(&won.len()), "flow {}: wins {:?}", f, won);
            prop_assert_eq!(
                out.epochs[f] as usize, won.len(),
                "flow {}: epoch must count successful reroutes", f
            );
            // The final home is the last winner's destination.
            prop_assert_eq!(out.homes[f], *won.last().unwrap(), "flow {}: map home vs winner", f);
            // Conservation: the packets live exactly where the map
            // points, none lost, none duplicated.
            prop_assert_eq!(out.ledger[f], (out.homes[f], PACKETS_PER_FLOW), "flow {}", f);
            // Every claim ends released — no thief leaks a hold.
            prop_assert_eq!(out.states[f], OwnerState::Settled, "flow {} left claimed", f);
        }

        // Determinism by epoch (§13.2): the same interleaving replays
        // to the identical outcome — homes, epochs, ledger, win order.
        prop_assert_eq!(out, run_interleaving(n_flows, shards, a, b, &schedule));
    }
}

proptest! {
    // Real threads are expensive; fewer, bigger cases.
    #![proptest_config(ProptestConfig { cases: 32 })]

    /// Free-running thieves: whatever the hardware interleaving, the
    /// ledger and the map agree flow by flow, every claim ends
    /// released, and each flow's epoch equals the number of reroutes
    /// that actually won.
    #[test]
    fn threaded_race_keeps_ledger_and_map_in_agreement(
        n_flows in 4..48usize,
        shards in 2..6usize,
        a_sel in 0..64usize,
        b_sel in 0..64usize,
    ) {
        let own = Arc::new(Ownership::new(n_flows, shards));
        let ledger: Arc<Vec<Mutex<(usize, u64)>>> = Arc::new(
            (0..n_flows)
                .map(|f| Mutex::new((own.shard_of(f).unwrap(), PACKETS_PER_FLOW)))
                .collect(),
        );
        let barrier = Arc::new(Barrier::new(2));
        let spawn_thief = |dest: usize, reversed: bool| {
            let own = Arc::clone(&own);
            let ledger = Arc::clone(&ledger);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut wins = Vec::new();
                let flows: Vec<usize> = if reversed {
                    (0..n_flows).rev().collect()
                } else {
                    (0..n_flows).collect()
                };
                for f in flows {
                    let Some(tok) = own.try_claim(f, dest) else {
                        continue;
                    };
                    if own.try_reroute(&tok, dest) {
                        // Winner moves the packets before releasing —
                        // the §13.2 discipline that makes "map says X"
                        // imply "packets at X".
                        *ledger[f].lock().unwrap() = (dest, PACKETS_PER_FLOW);
                        wins.push(f);
                    }
                    own.release(&tok);
                }
                wins
            })
        };
        let ta = spawn_thief(a_sel % shards, false);
        let tb = spawn_thief(b_sel % shards, true);
        let a_wins = ta.join().expect("first thief thread");
        let b_wins = tb.join().expect("second thief thread");

        let mut total = 0u64;
        for f in 0..n_flows {
            prop_assert_eq!(
                own.owner_state(f), OwnerState::Settled,
                "flow {} left claimed", f
            );
            let wins = a_wins.contains(&f) as u32 + b_wins.contains(&f) as u32;
            prop_assert_eq!(
                own.map.epoch_of(f), wins,
                "flow {}: epoch vs won reroutes", f
            );
            let (at, n) = *ledger[f].lock().unwrap();
            prop_assert_eq!(
                at, own.shard_of(f).unwrap(),
                "flow {}: packets stranded off-map", f
            );
            total += n;
        }
        prop_assert_eq!(total, n_flows as u64 * PACKETS_PER_FLOW);
    }
}
