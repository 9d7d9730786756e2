//! The window schedule: one rule for when a decimated window samples a
//! row, how much history a tick reads, and how the work of a push is
//! split between the push and the quiet tick after it.
//!
//! A windowed model predicts at every tick from its *history* (the last
//! `window - 1` sampled rows, oldest first) followed by the tick's own
//! row. A row is sampled every `decimate` ticks, from tick `phase` on
//! (tick `0` by default). A sampled tick *pushes* its row into the
//! history after its own prediction, so tick `t` reads the rows sampled
//! before `t`.
//!
//! Two streaming forms keep that history as LSTM state, and both split
//! a push's work in two so that no tick steps a whole window:
//!
//! - a *prefix bank* (the single-vehicle FFC) keeps one partial-window
//!   lane per history slot and steps every sampled row into all of them.
//!   [`WindowSchedule::bank_push`] says which lanes step at the push and
//!   which are owed to the next quiet tick ([`WindowSchedule::bank_owed`]);
//! - a *history ring* (a fleet session) keeps the rows and replays them
//!   into a prefix at each push. [`WindowSchedule::ring_replay`] says
//!   which ring rows the quiet tick after a push pre-steps and which the
//!   next push steps.
//!
//! With `decimate = 1` every tick pushes, there is no quiet tick, and a
//! push keeps all of its work. The split is two-way: the push and the
//! first quiet tick after it. At the deployed decimation 5 that makes
//! two heavy ticks in five, so the median tick is still a plain one.
//!
//! The schedule is pure: every answer is a function of the tick index,
//! so a model's runtime state needs only its tick counter, a reset that
//! zeroes the counter drops any owed work, and a clone carries it.

use std::ops::Range;

/// When a decimated window samples, and how each push's work is split.
/// See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSchedule {
    /// History rows: `window - 1`.
    cap: usize,
    decimate: usize,
    /// The first sampled tick, `< decimate`.
    phase: usize,
}

/// How one push steps a prefix bank's `window - 1` partial-window lanes
/// (see [`WindowSchedule::bank_push`]). Lane `j` restarts at every push
/// whose index is `j` modulo `window - 1`, so after a push the lane
/// restarted `i` pushes ago holds the last `i + 1` sampled rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankPush {
    /// The lane this push restarts from zero before stepping it. It held
    /// the prefix the live lane read until this push.
    pub restart: usize,
    /// Lanes stepped with the pushed row at the push.
    pub now: Range<usize>,
    /// Lanes stepped with the pushed row on the next tick (empty at
    /// `decimate = 1`).
    pub owed: Range<usize>,
    /// The lane that holds the whole history after this push, to be
    /// frozen as the new prefix; `None` while the history is filling.
    /// It lies in `now`.
    pub freeze: Option<usize>,
}

/// Rows of a history ring to step into a session's next prefix (see
/// [`WindowSchedule::ring_replay`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingReplay {
    /// Ring rows to step, oldest first, as indices into the ring in
    /// replay order as it stands after this tick's push, if any.
    pub rows: Range<usize>,
    /// Whether the rows continue the partial state a pre-step left (the
    /// rows before `rows.start`), rather than starting from zero.
    pub resume: bool,
    /// Whether the stepped state becomes the prefix (a push) or is kept
    /// as the partial state of the next one (a pre-step).
    pub freeze: bool,
}

/// `a ∩ b`, empty at `a.end` or `b.end` when they do not meet.
fn intersect(a: &Range<usize>, b: &Range<usize>) -> Range<usize> {
    let end = a.end.min(b.end);
    a.start.max(b.start).min(end)..end
}

impl WindowSchedule {
    /// The schedule of a `window`-row window sampled every `decimate`
    /// ticks from tick 0. A zero `window` or `decimate` is read as 1.
    pub fn new(window: usize, decimate: usize) -> Self {
        WindowSchedule {
            cap: window.max(1) - 1,
            decimate: decimate.max(1),
            phase: 0,
        }
    }

    /// The same schedule sampling from tick `phase` (taken modulo
    /// `decimate`) instead of tick 0.
    pub fn with_phase(self, phase: usize) -> Self {
        WindowSchedule {
            phase: phase % self.decimate,
            ..self
        }
    }

    /// History rows a full window reads: `window - 1`.
    pub fn history_cap(&self) -> usize {
        self.cap
    }

    /// Ticks between samples.
    pub fn decimate(&self) -> usize {
        self.decimate
    }

    /// Whether tick `tick` samples its row (the training rows too).
    pub fn is_sample(&self, tick: usize) -> bool {
        tick >= self.phase && (tick - self.phase).is_multiple_of(self.decimate)
    }

    /// Whether tick `tick` pushes its row into the history: a sampled
    /// tick, when the window has any history.
    pub fn is_push(&self, tick: usize) -> bool {
        self.cap > 0 && self.is_sample(tick)
    }

    /// Rows sampled at ticks before `tick`.
    pub fn samples_before(&self, tick: usize) -> usize {
        tick.saturating_sub(self.phase).div_ceil(self.decimate)
    }

    /// The tick that samples row `n` (counting from 0).
    pub fn sample_tick(&self, n: usize) -> usize {
        self.phase + n * self.decimate
    }

    /// History rows tick `tick` reads: those pushed before it, at most
    /// `window - 1`.
    pub fn rows_before(&self, tick: usize) -> usize {
        self.samples_before(tick).min(self.cap)
    }

    /// History rows after tick `tick`'s push, if any.
    pub fn rows_after(&self, tick: usize) -> usize {
        self.rows_before(tick + 1)
    }

    /// Whether tick `tick` reads a full history: its prefix is ready.
    pub fn is_ready(&self, tick: usize) -> bool {
        self.rows_before(tick) == self.cap
    }

    /// The ticks that read exactly `samples` sampled rows (before the
    /// history caps them): after the push of sample `samples - 1`,
    /// through the push of sample `samples`.
    pub fn ticks_reading(&self, samples: usize) -> Range<usize> {
        let start = match samples {
            0 => 0,
            n => self.sample_tick(n - 1) + 1,
        };
        start..self.sample_tick(samples) + 1
    }

    /// The first tick whose prefix is ready.
    pub fn first_ready_tick(&self) -> usize {
        self.ticks_reading(self.cap).start
    }

    /// Whether tick `tick` is the first quiet tick after a push, which
    /// takes the work the push owes (never at `decimate = 1`).
    pub fn is_owed(&self, tick: usize) -> bool {
        self.decimate > 1 && tick > 0 && self.is_push(tick - 1)
    }

    /// How push tick `tick` steps a prefix bank's partial-window lanes
    /// `0..window - 1`; `None` unless `tick` pushes.
    ///
    /// The lanes started so far all take the pushed row. The bank is cut
    /// into two fixed halves, `0..cap / 2` and `cap / 2..cap`
    /// (`cap = window - 1`); the push steps the half holding the lane it
    /// completes, so that lane can be frozen at once, and owes the other
    /// half to the next quiet tick. Both heavy ticks then step about
    /// half the bank. Every lane still takes the same rows in the same
    /// order, and nothing reads the owed lanes before the next push.
    pub fn bank_push(&self, tick: usize) -> Option<BankPush> {
        if !self.is_push(tick) {
            return None;
        }
        let k = self.samples_before(tick);
        let cap = self.cap;
        let started = 0..(k + 1).min(cap);
        let completes = (k + 1) % cap;
        let mid = cap / 2;
        let (lo, hi) = (0..mid, mid..cap);
        let (near, far) = if completes < mid { (lo, hi) } else { (hi, lo) };
        let (now, owed) = if self.decimate == 1 {
            (started, 0..0)
        } else {
            (intersect(&near, &started), intersect(&far, &started))
        };
        Some(BankPush {
            restart: k % cap,
            now,
            owed,
            freeze: (k + 1 >= cap).then_some(completes),
        })
    }

    /// The bank lanes tick `tick` owes the push before it, to be stepped
    /// with that push's row: empty unless `tick` is the first quiet tick
    /// after a push.
    pub fn bank_owed(&self, tick: usize) -> Range<usize> {
        match self.is_owed(tick).then(|| self.bank_push(tick - 1)).flatten() {
            Some(push) => push.owed,
            None => 0..0,
        }
    }

    /// Rows of the next prefix a ring replay pre-steps on the quiet tick
    /// before the push that completes it, when that prefix has `rows`
    /// rows: the first `⌊(window - 1) / 2⌋` of them, all but the pushed
    /// row at most, none at `decimate = 1`.
    fn prestep_rows(&self, rows: usize) -> usize {
        if self.decimate == 1 {
            0
        } else {
            (self.cap / 2).min(rows.saturating_sub(1))
        }
    }

    /// The history-ring replay tick `tick` owes, if any:
    ///
    /// - on the first quiet tick after a push, the next prefix's first
    ///   rows, which already sit in the ring (all but the oldest row once
    ///   the ring is full, since the next push drops it), stepped from
    ///   zero into a partial state;
    /// - at a push, the rest of the new history, the pushed row last,
    ///   resumed from that partial and frozen into the prefix.
    ///
    /// Each row is the same step in the same order as a whole replay
    /// from zero, so the prefix keeps its bits. The replay covers the
    /// history as it stands, full or not: whether a caller predicts from
    /// a partial history is its own rule, read from
    /// [`WindowSchedule::rows_before`].
    pub fn ring_replay(&self, tick: usize) -> Option<RingReplay> {
        if self.is_push(tick) {
            let rows = self.rows_after(tick);
            let first = self.prestep_rows(rows);
            return Some(RingReplay {
                rows: first..rows,
                resume: first > 0,
                freeze: true,
            });
        }
        if !self.is_owed(tick) {
            return None;
        }
        let skip = usize::from(self.rows_before(tick) == self.cap);
        let next = (self.samples_before(tick) + 1).min(self.cap);
        let pre = self.prestep_rows(next);
        (pre > 0).then_some(RingReplay {
            rows: skip..skip + pre,
            resume: false,
            freeze: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// One tick of the brute-force simulator.
    struct SimTick {
        sample: bool,
        /// History (sampled ticks, oldest first) before and after the
        /// tick's push.
        before: Vec<usize>,
        after: Vec<usize>,
        /// Whether a push happened at the tick before this one.
        after_push: bool,
    }

    /// A ring of sampled tick indices, pushed by counting ticks since the
    /// last sample, independent of the schedule's arithmetic.
    fn simulate(window: usize, decimate: usize, phase: usize, ticks: usize) -> Vec<SimTick> {
        let cap = window - 1;
        let mut ring = VecDeque::new();
        let mut until_sample = phase;
        let mut prev_push = false;
        let mut out = Vec::new();
        for t in 0..ticks {
            let before: Vec<usize> = ring.iter().copied().collect();
            let sample = until_sample == 0;
            until_sample = if sample { decimate - 1 } else { until_sample - 1 };
            if sample && cap > 0 {
                if ring.len() == cap {
                    ring.pop_front();
                }
                ring.push_back(t);
            }
            out.push(SimTick {
                sample,
                before,
                after: ring.iter().copied().collect(),
                after_push: prev_push,
            });
            prev_push = sample && cap > 0;
        }
        out
    }

    #[test]
    fn schedule_matches_a_brute_force_ring() {
        const TICKS: usize = 200;
        for window in 1..=8 {
            for decimate in 1..=8 {
                for phase in [0, decimate - 1] {
                    let s = WindowSchedule::new(window, decimate).with_phase(phase);
                    let cap = window - 1;
                    let sim = simulate(window, decimate, phase, TICKS);
                    // Lane `j` of a bank: the sampled ticks stepped into it
                    // since its last restart.
                    let mut lanes: Vec<Vec<usize>> = vec![Vec::new(); cap];
                    // Lanes owed by the last push, and its row.
                    let mut owed: Option<(Range<usize>, usize)> = None;
                    let mut prefix: Option<Vec<usize>> = None;
                    // The fleet's ring: the partial pre-stepped rows.
                    let mut partial: Vec<usize> = Vec::new();
                    let mut ring_prefix: Vec<usize> = Vec::new();
                    let mut stepped = vec![0usize; cap];
                    for (t, tick) in sim.iter().enumerate() {
                        let ctx = format!("window {window} decimate {decimate} phase {phase} tick {t}");
                        assert_eq!(s.is_sample(t), tick.sample, "{ctx}");
                        assert_eq!(s.is_push(t), tick.sample && cap > 0, "{ctx}");
                        assert_eq!(s.rows_before(t), tick.before.len(), "{ctx}");
                        assert_eq!(s.rows_after(t), tick.after.len(), "{ctx}");
                        assert_eq!(s.is_ready(t), tick.before.len() == cap, "{ctx}");
                        assert_eq!(s.is_owed(t), tick.after_push && decimate > 1, "{ctx}");
                        let samples = s.samples_before(t);
                        assert!(s.ticks_reading(samples).contains(&t), "{ctx}");
                        if tick.sample {
                            assert_eq!(s.sample_tick(samples), t, "{ctx}");
                        }
                        if s.is_ready(t) {
                            assert!(t >= s.first_ready_tick(), "{ctx}");
                            // The live lane reads the frozen prefix: the
                            // whole history, from both forms.
                            if cap > 0 {
                                assert_eq!(prefix.as_ref(), Some(&tick.before), "{ctx}");
                            }
                        } else {
                            assert!(t < s.first_ready_tick(), "{ctx}");
                        }
                        if cap > 0 && t > 0 {
                            assert_eq!(ring_prefix, sim[t - 1].after, "{ctx}: ring prefix");
                        }

                        // The bank: owed lanes first, with the push's row.
                        let due = s.bank_owed(t);
                        match owed.take() {
                            Some((lanes_owed, row)) if tick.after_push => {
                                assert_eq!(due, lanes_owed, "{ctx}");
                                for j in lanes_owed {
                                    lanes[j].push(row);
                                    stepped[j] += 1;
                                }
                            }
                            Some((lanes_owed, _)) => {
                                panic!("{ctx}: lanes {lanes_owed:?} owed past the next push")
                            }
                            None => assert!(due.is_empty(), "{ctx}: {due:?} owed with no push"),
                        }
                        match s.bank_push(t) {
                            Some(push) => {
                                assert!(tick.sample && cap > 0, "{ctx}");
                                // Every lane took every push's row once.
                                assert!(stepped.iter().all(|&n| n == stepped[0]), "{ctx}");
                                lanes[push.restart].clear();
                                let started = (samples + 1).min(cap);
                                let mut hit = vec![0; cap];
                                for j in push.now.clone().chain(push.owed.clone()) {
                                    hit[j] += 1;
                                }
                                let want: Vec<usize> = (0..cap).map(|j| usize::from(j < started)).collect();
                                assert_eq!(hit, want, "{ctx}: now {:?} owed {:?}", push.now, push.owed);
                                for j in push.now.clone() {
                                    lanes[j].push(t);
                                }
                                for j in started..cap {
                                    stepped[j] += 1;
                                }
                                for j in push.now.clone() {
                                    stepped[j] += 1;
                                }
                                if decimate == 1 {
                                    assert!(push.owed.is_empty(), "{ctx}");
                                }
                                match push.freeze {
                                    Some(f) => {
                                        assert!(push.now.contains(&f), "{ctx}");
                                        assert_eq!(lanes[f], tick.after, "{ctx}: frozen lane");
                                        prefix = Some(lanes[f].clone());
                                    }
                                    None => assert!(tick.after.len() < cap, "{ctx}"),
                                }
                                if !push.owed.is_empty() {
                                    owed = Some((push.owed, t));
                                }
                            }
                            None => assert!(!(tick.sample && cap > 0), "{ctx}"),
                        }

                        // The ring: a pre-step, then the push resuming it.
                        match s.ring_replay(t) {
                            Some(r) if r.freeze => {
                                assert!(s.is_push(t), "{ctx}");
                                assert_eq!(r.resume, r.rows.start > 0, "{ctx}");
                                assert_eq!(r.rows.end, tick.after.len(), "{ctx}");
                                let mut state = if r.resume { std::mem::take(&mut partial) } else { Vec::new() };
                                assert_eq!(state.len(), r.rows.start, "{ctx}: resumed rows");
                                state.extend(r.rows.map(|i| tick.after[i]));
                                ring_prefix = state;
                                partial.clear();
                            }
                            Some(r) => {
                                assert!(s.is_owed(t) && decimate > 1, "{ctx}");
                                assert!(!r.resume && !r.rows.is_empty(), "{ctx}");
                                assert!(r.rows.len() <= cap / 2, "{ctx}");
                                partial = r.rows.map(|i| tick.after[i]).collect();
                            }
                            None => assert!(!s.is_push(t), "{ctx}"),
                        }
                        if decimate == 1 {
                            assert!(!s.ring_replay(t).is_some_and(|r| r.resume), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_sizes_read_as_one() {
        let s = WindowSchedule::new(0, 0);
        assert_eq!((s.history_cap(), s.decimate()), (0, 1));
        assert!(s.is_sample(7) && !s.is_push(7) && s.is_ready(0));
        assert_eq!(s.bank_push(0), None);
        assert_eq!(s.ring_replay(3), None);
    }

    #[test]
    fn deployed_shape_splits_the_bank_in_halves() {
        // Window 20 at decimation 5: a full-history push steps one half of
        // the 19 lanes and owes the other to the tick after it.
        let s = WindowSchedule::new(20, 5);
        for k in 19..60 {
            let t = s.sample_tick(k);
            let push = s.bank_push(t).expect("a push");
            assert!(push.now.len() + push.owed.len() == 19);
            assert!((9..=10).contains(&push.now.len()), "{push:?}");
            assert_eq!(s.bank_owed(t + 1), push.owed);
            assert!((t + 2..t + 5).all(|u| s.bank_owed(u).is_empty()));
        }
    }
}
