//! Seeded chaos for the replication link.
//!
//! Where `dwqa-store`'s `TornWriter` abuses the *disk*, [`LinkFault`]
//! abuses the TCP link a primary ships WAL frames over: frames are
//! dropped, delayed, torn mid-frame, duplicated, or the connection goes
//! half-open (silent, then dead). Every decision derives from a seed
//! and a monotonically increasing event counter, so a chaos run
//! replays exactly — but, unlike the disk layer, *retries of the same
//! frame get fresh rolls*: a dropped frame is not doomed forever, and
//! a follower that keeps resubscribing eventually drains the backlog.
//!
//! The replication protocol must survive all of this via offset
//! negotiation (resubscribe from the last applied sequence) and
//! dedup by frame sequence number; `exp_failover` (E18) proves it.

use dwqa_common::mix64;
use std::time::Duration;

const SALT_DROP: u64 = 0x4452; // "DR"
const SALT_TEAR: u64 = 0x5452; // "TR"
const SALT_DUP: u64 = 0x4450; // "DP"
const SALT_HALF: u64 = 0x484F; // "HO"
const SALT_DELAY: u64 = 0x444C; // "DL"
const SALT_POINT: u64 = 0x5054; // "PT"

/// Per-event fault rates for a replication link. All rates are
/// clamped to `[0, 1]`; a zero plan (from [`LinkPlan::new`]) delivers
/// everything untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPlan {
    /// Seed every decision derives from.
    pub seed: u64,
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is torn: a proper prefix is written, then
    /// the connection is closed.
    pub tear: f64,
    /// Probability a frame is written twice back-to-back.
    pub duplicate: f64,
    /// Probability the connection goes half-open: the sender falls
    /// silent (no frames, no heartbeats) before the socket dies.
    pub half_open: f64,
    /// Probability a frame is delayed before being written.
    pub delay: f64,
    /// Upper bound on an injected delay.
    pub max_delay: Duration,
}

impl LinkPlan {
    /// A plan that never faults: every frame is delivered promptly.
    pub fn new(seed: u64) -> LinkPlan {
        LinkPlan {
            seed,
            drop: 0.0,
            tear: 0.0,
            duplicate: 0.0,
            half_open: 0.0,
            delay: 0.0,
            max_delay: Duration::from_millis(5),
        }
    }

    /// A balanced chaos mix at overall `rate`: 30% drops, 20% tears,
    /// 15% duplicates, 10% half-open stalls, 25% delays.
    pub fn chaos(seed: u64, rate: f64) -> LinkPlan {
        let rate = rate.clamp(0.0, 1.0);
        LinkPlan {
            seed,
            drop: rate * 0.30,
            tear: rate * 0.20,
            duplicate: rate * 0.15,
            half_open: rate * 0.10,
            delay: rate * 0.25,
            max_delay: Duration::from_millis(5),
        }
    }

    /// Sets the drop rate (clamped to `[0, 1]`).
    pub fn with_drop(mut self, rate: f64) -> LinkPlan {
        self.drop = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the tear rate (clamped to `[0, 1]`).
    pub fn with_tear(mut self, rate: f64) -> LinkPlan {
        self.tear = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the duplicate rate (clamped to `[0, 1]`).
    pub fn with_duplicate(mut self, rate: f64) -> LinkPlan {
        self.duplicate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the half-open rate (clamped to `[0, 1]`).
    pub fn with_half_open(mut self, rate: f64) -> LinkPlan {
        self.half_open = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the delay rate (clamped to `[0, 1]`).
    pub fn with_delay(mut self, rate: f64) -> LinkPlan {
        self.delay = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the upper bound on injected delays.
    pub fn with_max_delay(mut self, max: Duration) -> LinkPlan {
        self.max_delay = max;
        self
    }

    /// A uniform float in `[0, 1)` from the top 53 bits of the roll.
    fn unit(&self, event: u64, salt: u64) -> f64 {
        let h = mix64(self.seed ^ mix64(event.wrapping_mul(0x9E37).wrapping_add(salt)));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    fn point(&self, event: u64, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        mix64(self.seed ^ mix64(event.wrapping_add(SALT_POINT))) % bound
    }
}

/// What happens to the frame itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkAction {
    /// The frame is written whole.
    Deliver,
    /// The frame never leaves the sender.
    Drop,
    /// Only the first `n` bytes are written, then the connection is
    /// closed — the receiver sees a torn frame at its stream offset.
    Tear(usize),
    /// The sender falls silent without writing, then the connection
    /// dies: the receiver must detect the stall by heartbeat timeout.
    HalfOpen,
}

/// One link-chaos decision: the action, whether to write the frame a
/// second time, and an optional pre-write delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDecision {
    /// What happens to the frame.
    pub action: LinkAction,
    /// Write the frame twice (only meaningful with
    /// [`LinkAction::Deliver`]).
    pub duplicate: bool,
    /// Sleep this long before writing.
    pub delay: Option<Duration>,
}

impl LinkDecision {
    /// A clean decision: deliver once, promptly.
    pub fn deliver() -> LinkDecision {
        LinkDecision {
            action: LinkAction::Deliver,
            duplicate: false,
            delay: None,
        }
    }
}

/// The stateful chaos layer a replication sender threads every frame
/// through. The event counter advances on every call, so the decision
/// stream is deterministic per `(seed, call sequence)` while retries
/// of the *same* frame still get fresh rolls.
#[derive(Debug, Clone)]
pub struct LinkFault {
    plan: LinkPlan,
    events: u64,
}

impl LinkFault {
    /// A fault layer over `plan`, starting at event zero.
    pub fn new(plan: LinkPlan) -> LinkFault {
        LinkFault { plan, events: 0 }
    }

    /// The plan this layer rolls against.
    pub fn plan(&self) -> &LinkPlan {
        &self.plan
    }

    /// How many decisions have been made so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Decides the fate of the next frame of `frame_len` bytes.
    /// Exactly one of drop / tear / half-open fires per event (first
    /// match wins); duplication and delay are rolled independently and
    /// only apply to delivered frames.
    pub fn decide(&mut self, frame_len: usize) -> LinkDecision {
        let event = self.events;
        self.events += 1;
        let plan = &self.plan;
        if plan.unit(event, SALT_DROP) < plan.drop {
            return LinkDecision {
                action: LinkAction::Drop,
                duplicate: false,
                delay: None,
            };
        }
        if frame_len > 1 && plan.unit(event, SALT_TEAR) < plan.tear {
            let keep = 1 + plan.point(event, frame_len as u64 - 1) as usize;
            return LinkDecision {
                action: LinkAction::Tear(keep),
                duplicate: false,
                delay: None,
            };
        }
        if plan.unit(event, SALT_HALF) < plan.half_open {
            return LinkDecision {
                action: LinkAction::HalfOpen,
                duplicate: false,
                delay: None,
            };
        }
        let duplicate = plan.unit(event, SALT_DUP) < plan.duplicate;
        let delay = if plan.unit(event, SALT_DELAY) < plan.delay {
            let nanos = plan.max_delay.as_nanos() as u64;
            Some(Duration::from_nanos(plan.point(event, nanos.max(1))))
        } else {
            None
        };
        LinkDecision {
            action: LinkAction::Deliver,
            duplicate,
            delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_always_delivers() {
        let mut link = LinkFault::new(LinkPlan::new(7));
        for _ in 0..500 {
            assert_eq!(link.decide(64), LinkDecision::deliver());
        }
        assert_eq!(link.events(), 500);
    }

    #[test]
    fn decisions_replay_from_the_seed() {
        let mut a = LinkFault::new(LinkPlan::chaos(42, 0.5));
        let mut b = LinkFault::new(LinkPlan::chaos(42, 0.5));
        for _ in 0..200 {
            assert_eq!(a.decide(128), b.decide(128));
        }
    }

    #[test]
    fn retries_get_fresh_rolls() {
        // With a certain drop rate every event drops, but the *counter*
        // still advances — so a plan that drops only sometimes lets a
        // retried frame through eventually.
        let mut link = LinkFault::new(LinkPlan::new(3).with_drop(0.5));
        let delivered = (0..200)
            .filter(|_| link.decide(64) == LinkDecision::deliver())
            .count();
        assert!(delivered > 50, "only {delivered} of 200 delivered");
        assert!(delivered < 150, "suspiciously many delivered: {delivered}");
    }

    #[test]
    fn certain_rates_always_fire() {
        let mut drops = LinkFault::new(LinkPlan::new(1).with_drop(1.0));
        assert_eq!(drops.decide(64).action, LinkAction::Drop);

        let mut tears = LinkFault::new(LinkPlan::new(1).with_tear(1.0));
        match tears.decide(64).action {
            LinkAction::Tear(keep) => assert!((1..64).contains(&keep)),
            other => panic!("expected tear, got {other:?}"),
        }
        // A 1-byte frame cannot be torn into a proper prefix: the roll
        // falls through to half-open/deliver instead.
        assert_ne!(
            LinkFault::new(LinkPlan::new(1).with_tear(1.0))
                .decide(1)
                .action,
            LinkAction::Drop
        );

        let mut half = LinkFault::new(LinkPlan::new(1).with_half_open(1.0));
        assert_eq!(half.decide(64).action, LinkAction::HalfOpen);

        let mut dups = LinkFault::new(LinkPlan::new(1).with_duplicate(1.0));
        let d = dups.decide(64);
        assert_eq!(d.action, LinkAction::Deliver);
        assert!(d.duplicate);

        let mut slow = LinkFault::new(LinkPlan::new(1).with_delay(1.0));
        let d = slow.decide(64);
        assert!(d.delay.is_some());
        assert!(d.delay.unwrap_or_default() <= Duration::from_millis(5));
    }

    #[test]
    fn rates_are_clamped() {
        let plan = LinkPlan::chaos(9, 7.0)
            .with_drop(-1.0)
            .with_tear(2.0)
            .with_duplicate(2.0)
            .with_half_open(-0.5)
            .with_delay(3.0);
        assert_eq!(plan.drop, 0.0);
        assert_eq!(plan.tear, 1.0);
        assert_eq!(plan.duplicate, 1.0);
        assert_eq!(plan.half_open, 0.0);
        assert_eq!(plan.delay, 1.0);
    }
}
