//! Epoch time-series recorder: gem5-style periodic statistics.
//!
//! [`EpochRecorder`] folds the probe event stream into fixed-width time
//! bins ("epochs") of `interval` ticks. Each epoch captures bandwidth, data
//! bus utilisation, row-hit rate, command counts, time-weighted queue
//! occupancy and low-power residency — the quantities gem5's periodic
//! `stats.txt` dumps provide for every DRAM figure in the literature.
//!
//! Quantities that span time (bus busy, queue occupancy, power residency)
//! are split proportionally across the epochs they overlap, so a transfer
//! crossing an epoch boundary contributes to both epochs' utilisation.
//! Because DRAM command timestamps point into the future (the event model
//! schedules ahead of `now`), bins are indexed by absolute time and grown
//! on demand rather than rolled forward.

use crate::probe::{CmdEvent, DramCmd, PowerState, Probe, RasMark};
use dramctrl_kernel::json::json_f64;
use dramctrl_kernel::Tick;
use std::fmt::Write as _;

/// Per-epoch accumulators (raw sums; derived rates live on [`EpochRow`]).
#[derive(Debug, Clone, Copy, Default)]
struct Bin {
    bytes_read: u64,
    bytes_written: u64,
    bus_busy: Tick,
    row_hits: u64,
    row_misses: u64,
    acts: u64,
    pres: u64,
    refs: u64,
    rdq_integral: u128,
    wrq_integral: u128,
    powerdown: Tick,
    selfref: Tick,
    ras_corrected: u64,
    ras_uncorrected: u64,
    ras_retries: u64,
}

/// One finished epoch, with derived rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRow {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// First tick of the epoch (inclusive).
    pub start: Tick,
    /// Last tick of the epoch (exclusive).
    pub end: Tick,
    /// Bytes read from DRAM during the epoch.
    pub bytes_read: u64,
    /// Bytes written to DRAM during the epoch.
    pub bytes_written: u64,
    /// Ticks the data bus was busy within the epoch.
    pub bus_busy: Tick,
    /// Column accesses that hit an open row.
    pub row_hits: u64,
    /// Column accesses that missed (required activation).
    pub row_misses: u64,
    /// ACT commands issued.
    pub acts: u64,
    /// PRE commands issued.
    pub pres: u64,
    /// REF commands issued.
    pub refs: u64,
    /// Time-weighted average read-queue depth.
    pub avg_rdq: f64,
    /// Time-weighted average write-queue depth.
    pub avg_wrq: f64,
    /// Rank-ticks spent in precharge power-down (summed over ranks).
    pub powerdown: Tick,
    /// Rank-ticks spent in self-refresh (summed over ranks).
    pub selfref: Tick,
    /// Faulty bursts corrected by ECC in the epoch.
    pub ras_corrected: u64,
    /// Faulty bursts detected but not corrected (including silent
    /// corruptions, counted by the controller's fault model).
    pub ras_uncorrected: u64,
    /// Link-error retries issued in the epoch.
    pub ras_retries: u64,
}

impl EpochRow {
    /// Total data bandwidth over the epoch in GB/s (ticks are picoseconds,
    /// so bytes/tick × 1000 = GB/s).
    pub fn bandwidth_gbps(&self) -> f64 {
        let span = self.end - self.start;
        if span == 0 {
            return 0.0;
        }
        (self.bytes_read + self.bytes_written) as f64 / span as f64 * 1000.0
    }

    /// Fraction of the epoch the data bus was transferring.
    pub fn bus_util(&self) -> f64 {
        let span = self.end - self.start;
        if span == 0 {
            return 0.0;
        }
        self.bus_busy as f64 / span as f64
    }

    /// Row-hit fraction of column accesses in the epoch (0 when idle).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            return 0.0;
        }
        self.row_hits as f64 / total as f64
    }
}

/// Folds probe events into fixed-width epochs. Implements [`Probe`], so it
/// plugs directly into an instrumented controller; call
/// [`finish`](Self::finish) once at the end of the run to close the open
/// occupancy and residency spans, then export with [`to_csv`](Self::to_csv)
/// or [`to_jsonl`](Self::to_jsonl).
#[derive(Debug, Clone)]
pub struct EpochRecorder {
    interval: Tick,
    bins: Vec<Bin>,
    /// Current queue depths and the tick they took effect.
    rdq: usize,
    wrq: usize,
    q_since: Tick,
    /// Per-rank power state and the tick it was entered.
    ranks: Vec<(u32, PowerState, Tick)>,
    /// End of recording, set by [`finish`](Self::finish).
    end: Tick,
}

impl EpochRecorder {
    /// A recorder binning every `interval` ticks. `interval` must be
    /// non-zero.
    pub fn new(interval: Tick) -> Self {
        assert!(interval > 0, "epoch interval must be non-zero");
        Self {
            interval,
            bins: Vec::new(),
            rdq: 0,
            wrq: 0,
            q_since: 0,
            ranks: Vec::new(),
            end: 0,
        }
    }

    /// The configured epoch width in ticks.
    pub fn interval(&self) -> Tick {
        self.interval
    }

    /// Closes the open queue-occupancy and power-residency spans at `end`
    /// and fixes the recording length. Call exactly once, after the
    /// simulation has drained.
    pub fn finish(&mut self, end: Tick) {
        let end = end.max(self.end);
        if end > self.q_since {
            let (rdq, wrq, since) = (self.rdq as u128, self.wrq as u128, self.q_since);
            self.add_span(since, end, |bin, span| {
                bin.rdq_integral += rdq * u128::from(span);
                bin.wrq_integral += wrq * u128::from(span);
            });
            self.q_since = end;
        }
        for i in 0..self.ranks.len() {
            let (_, state, since) = self.ranks[i];
            if end > since {
                self.add_residency(state, since, end);
                self.ranks[i].2 = end;
            }
        }
        self.end = end;
    }

    /// The rows recorded so far. Spans still open (no [`finish`] yet) are
    /// not included in their bins.
    ///
    /// [`finish`]: Self::finish
    pub fn rows(&self) -> Vec<EpochRow> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, bin)| {
                let start = i as Tick * self.interval;
                let end = (start + self.interval).min(self.end.max(start + self.interval));
                let span = end - start;
                EpochRow {
                    epoch: i,
                    start,
                    end,
                    bytes_read: bin.bytes_read,
                    bytes_written: bin.bytes_written,
                    bus_busy: bin.bus_busy,
                    row_hits: bin.row_hits,
                    row_misses: bin.row_misses,
                    acts: bin.acts,
                    pres: bin.pres,
                    refs: bin.refs,
                    avg_rdq: bin.rdq_integral as f64 / span as f64,
                    avg_wrq: bin.wrq_integral as f64 / span as f64,
                    powerdown: bin.powerdown,
                    selfref: bin.selfref,
                    ras_corrected: bin.ras_corrected,
                    ras_uncorrected: bin.ras_uncorrected,
                    ras_retries: bin.ras_retries,
                }
            })
            .collect()
    }

    /// Renders the time-series as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "epoch,start_ps,end_ps,bytes_read,bytes_written,bandwidth_gbps,bus_util,\
             row_hits,row_misses,row_hit_rate,acts,pres,refs,avg_rdq,avg_wrq,\
             powerdown_ps,selfref_ps,ras_corrected,ras_uncorrected,ras_retries\n",
        );
        for r in self.rows() {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:.6},{:.6},{},{},{:.6},{},{},{},{:.6},{:.6},{},{},{},{},{}",
                r.epoch,
                r.start,
                r.end,
                r.bytes_read,
                r.bytes_written,
                r.bandwidth_gbps(),
                r.bus_util(),
                r.row_hits,
                r.row_misses,
                r.row_hit_rate(),
                r.acts,
                r.pres,
                r.refs,
                r.avg_rdq,
                r.avg_wrq,
                r.powerdown,
                r.selfref,
                r.ras_corrected,
                r.ras_uncorrected,
                r.ras_retries,
            );
        }
        out
    }

    /// Renders the time-series as JSON lines (one object per epoch, same
    /// fields as the CSV).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.rows() {
            let _ = writeln!(
                out,
                "{{\"epoch\":{},\"start_ps\":{},\"end_ps\":{},\"bytes_read\":{},\
                 \"bytes_written\":{},\"bandwidth_gbps\":{},\"bus_util\":{},\
                 \"row_hits\":{},\"row_misses\":{},\"row_hit_rate\":{},\
                 \"acts\":{},\"pres\":{},\"refs\":{},\"avg_rdq\":{},\"avg_wrq\":{},\
                 \"powerdown_ps\":{},\"selfref_ps\":{},\
                 \"ras_corrected\":{},\"ras_uncorrected\":{},\"ras_retries\":{}}}",
                r.epoch,
                r.start,
                r.end,
                r.bytes_read,
                r.bytes_written,
                json_f64(r.bandwidth_gbps()),
                json_f64(r.bus_util()),
                r.row_hits,
                r.row_misses,
                json_f64(r.row_hit_rate()),
                r.acts,
                r.pres,
                r.refs,
                json_f64(r.avg_rdq),
                json_f64(r.avg_wrq),
                r.powerdown,
                r.selfref,
                r.ras_corrected,
                r.ras_uncorrected,
                r.ras_retries,
            );
        }
        out
    }

    /// Merges another recorder's bins into this one (element-wise sums),
    /// e.g. to combine the per-channel recorders of a multi-channel system
    /// into one system-level time-series. Both recorders must use the same
    /// interval, and both should be [`finish`](Self::finish)ed first so no
    /// open spans are lost.
    ///
    /// # Panics
    /// Panics if the intervals differ.
    pub fn absorb(&mut self, other: &EpochRecorder) {
        assert_eq!(
            self.interval, other.interval,
            "cannot absorb a recorder with a different epoch interval"
        );
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), Bin::default());
        }
        for (dst, src) in self.bins.iter_mut().zip(&other.bins) {
            dst.bytes_read += src.bytes_read;
            dst.bytes_written += src.bytes_written;
            dst.bus_busy += src.bus_busy;
            dst.row_hits += src.row_hits;
            dst.row_misses += src.row_misses;
            dst.acts += src.acts;
            dst.pres += src.pres;
            dst.refs += src.refs;
            dst.rdq_integral += src.rdq_integral;
            dst.wrq_integral += src.wrq_integral;
            dst.powerdown += src.powerdown;
            dst.selfref += src.selfref;
            dst.ras_corrected += src.ras_corrected;
            dst.ras_uncorrected += src.ras_uncorrected;
            dst.ras_retries += src.ras_retries;
        }
        self.end = self.end.max(other.end);
    }

    fn bin_mut(&mut self, at: Tick) -> &mut Bin {
        let idx = (at / self.interval) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, Bin::default());
        }
        self.end = self.end.max(at);
        &mut self.bins[idx]
    }

    /// Applies `f(bin, overlap_ticks)` to every bin overlapping
    /// `[from, to)`.
    fn add_span(&mut self, from: Tick, to: Tick, mut f: impl FnMut(&mut Bin, Tick)) {
        if to <= from {
            return;
        }
        let interval = self.interval;
        let mut at = from;
        while at < to {
            let bin_end = (at / interval + 1) * interval;
            let seg_end = bin_end.min(to);
            let span = seg_end - at;
            f(self.bin_mut(at), span);
            at = seg_end;
        }
        self.end = self.end.max(to);
    }

    fn add_residency(&mut self, state: PowerState, from: Tick, to: Tick) {
        match state {
            PowerState::Active => {}
            PowerState::PoweredDown => {
                self.add_span(from, to, |bin, span| bin.powerdown += span);
            }
            PowerState::SelfRefresh => {
                self.add_span(from, to, |bin, span| bin.selfref += span);
            }
        }
    }
}

impl Probe for EpochRecorder {
    fn dram_cmd(&mut self, ev: CmdEvent) {
        match ev.cmd {
            DramCmd::Act => self.bin_mut(ev.at).acts += 1,
            DramCmd::Pre => self.bin_mut(ev.at).pres += 1,
            DramCmd::Ref => self.bin_mut(ev.at).refs += 1,
            DramCmd::Rd | DramCmd::Wr => {
                {
                    let bin = self.bin_mut(ev.at);
                    if ev.cmd == DramCmd::Rd {
                        bin.bytes_read += u64::from(ev.bytes);
                    } else {
                        bin.bytes_written += u64::from(ev.bytes);
                    }
                    if ev.row_hit {
                        bin.row_hits += 1;
                    } else {
                        bin.row_misses += 1;
                    }
                }
                self.add_span(ev.at, ev.at + ev.dur, |bin, span| bin.bus_busy += span);
            }
        }
    }

    fn queue_depth(&mut self, read_q: usize, write_q: usize, now: Tick) {
        if now > self.q_since {
            let (rdq, wrq, since) = (self.rdq as u128, self.wrq as u128, self.q_since);
            self.add_span(since, now, |bin, span| {
                bin.rdq_integral += rdq * u128::from(span);
                bin.wrq_integral += wrq * u128::from(span);
            });
            self.q_since = now;
        }
        self.rdq = read_q;
        self.wrq = write_q;
    }

    fn ras_event(&mut self, _rank: u32, _bank: u32, _row: u64, mark: RasMark, at: Tick) {
        let bin = self.bin_mut(at);
        match mark {
            RasMark::Corrected => bin.ras_corrected += 1,
            RasMark::Uncorrected | RasMark::Silent => bin.ras_uncorrected += 1,
            RasMark::Retry => bin.ras_retries += 1,
            RasMark::Remap | RasMark::RankOffline => {}
        }
    }

    fn power_state(&mut self, rank: u32, state: PowerState, at: Tick) {
        if let Some(entry) = self.ranks.iter_mut().find(|(r, _, _)| *r == rank) {
            let (_, old, since) = *entry;
            *entry = (rank, state, at);
            if at > since {
                self.add_residency(old, since, at);
            }
        } else {
            // First sighting: the rank was active from tick 0.
            self.ranks.push((rank, state, at));
            self.end = self.end.max(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_and_hit_rate_per_epoch() {
        let mut r = EpochRecorder::new(1_000);
        // Epoch 0: one 64-byte read, row miss.
        r.dram_cmd(CmdEvent::data(DramCmd::Rd, 0, 0, 1, 100, 200, 64, false));
        // Epoch 2: one 64-byte write, row hit.
        r.dram_cmd(CmdEvent::data(DramCmd::Wr, 0, 0, 1, 2_100, 200, 64, true));
        r.finish(3_000);
        let rows = r.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].bytes_read, 64);
        assert_eq!(rows[0].row_misses, 1);
        assert!((rows[0].bandwidth_gbps() - 64.0).abs() < 1e-9);
        assert!((rows[0].bus_util() - 0.2).abs() < 1e-9);
        assert_eq!(rows[1].bytes_read + rows[1].bytes_written, 0);
        assert_eq!(rows[2].bytes_written, 64);
        assert!((rows[2].row_hit_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spans_split_across_epochs() {
        let mut r = EpochRecorder::new(1_000);
        // A transfer crossing the epoch boundary: 600 ticks in epoch 0,
        // 400 in epoch 1.
        r.dram_cmd(CmdEvent::data(DramCmd::Rd, 0, 0, 1, 400, 1_000, 64, false));
        r.finish(2_000);
        let rows = r.rows();
        assert_eq!(rows[0].bus_busy, 600);
        assert_eq!(rows[1].bus_busy, 400);
        // Bytes are attributed to the start epoch only.
        assert_eq!(rows[0].bytes_read, 64);
        assert_eq!(rows[1].bytes_read, 0);
    }

    #[test]
    fn queue_occupancy_is_time_weighted() {
        let mut r = EpochRecorder::new(1_000);
        r.queue_depth(4, 0, 500); // depth 0 for [0,500)
        r.queue_depth(0, 2, 1_500); // rd 4 for [500,1500)
        r.finish(2_000); // wr 2 for [1500,2000)
        let rows = r.rows();
        // Epoch 0: rd 4 over [500,1000) → integral 2000 / 1000 = 2.0.
        assert!((rows[0].avg_rdq - 2.0).abs() < 1e-9);
        // Epoch 1: rd 4 over [1000,1500) → 2.0; wr 2 over [1500,2000) → 1.0.
        assert!((rows[1].avg_rdq - 2.0).abs() < 1e-9);
        assert!((rows[1].avg_wrq - 1.0).abs() < 1e-9);
    }

    #[test]
    fn power_residency_split() {
        let mut r = EpochRecorder::new(1_000);
        r.power_state(0, PowerState::PoweredDown, 800);
        r.power_state(0, PowerState::Active, 1_200);
        r.power_state(1, PowerState::SelfRefresh, 1_500);
        r.finish(2_000);
        let rows = r.rows();
        assert_eq!(rows[0].powerdown, 200);
        assert_eq!(rows[1].powerdown, 200);
        assert_eq!(rows[1].selfref, 500);
    }

    #[test]
    fn exports_are_parseable() {
        let mut r = EpochRecorder::new(1_000);
        r.dram_cmd(CmdEvent::data(DramCmd::Rd, 0, 0, 1, 100, 200, 64, true));
        r.dram_cmd(CmdEvent::act(0, 0, 1, 1_200, 300));
        r.finish(2_000);
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 3); // header + 2 epochs
        assert!(csv.starts_with("epoch,start_ps"));
        for line in r.to_jsonl().lines() {
            crate::json::validate(line).expect("valid JSONL row");
        }
        assert_eq!(r.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn absorb_sums_channels() {
        let mut a = EpochRecorder::new(1_000);
        a.dram_cmd(CmdEvent::data(DramCmd::Rd, 0, 0, 1, 100, 200, 64, true));
        a.finish(2_000);
        let mut b = EpochRecorder::new(1_000);
        b.dram_cmd(CmdEvent::data(DramCmd::Wr, 0, 1, 2, 1_100, 200, 32, false));
        b.dram_cmd(CmdEvent::act(0, 1, 2, 900, 300));
        b.finish(3_000);
        a.absorb(&b);
        let rows = a.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].bytes_read, 64);
        assert_eq!(rows[0].acts, 1);
        assert_eq!(rows[1].bytes_written, 32);
        assert_eq!(rows[1].row_misses, 1);
    }

    #[test]
    fn ras_marks_are_binned_and_exported() {
        let mut r = EpochRecorder::new(1_000);
        r.ras_event(0, 0, 7, RasMark::Corrected, 100);
        r.ras_event(0, 0, 7, RasMark::Retry, 200);
        r.ras_event(0, 1, 8, RasMark::Uncorrected, 1_100);
        r.ras_event(0, 1, 8, RasMark::Silent, 1_200);
        r.ras_event(0, 1, 8, RasMark::Remap, 1_300); // not counted
        r.finish(2_000);
        let rows = r.rows();
        assert_eq!(rows[0].ras_corrected, 1);
        assert_eq!(rows[0].ras_retries, 1);
        assert_eq!(rows[1].ras_uncorrected, 2);
        let csv = r.to_csv();
        assert!(
            csv.lines().next().unwrap().ends_with("ras_retries"),
            "{csv}"
        );
        for line in r.to_jsonl().lines() {
            crate::json::validate(line).unwrap();
        }
        assert!(r.to_jsonl().contains("\"ras_corrected\":1"));
        // Absorb sums the RAS columns too.
        let mut other = EpochRecorder::new(1_000);
        other.ras_event(0, 0, 9, RasMark::Corrected, 150);
        other.finish(2_000);
        r.absorb(&other);
        assert_eq!(r.rows()[0].ras_corrected, 2);
    }

    #[test]
    fn out_of_order_queue_updates_do_not_panic() {
        let mut r = EpochRecorder::new(1_000);
        r.queue_depth(1, 0, 1_000);
        r.queue_depth(2, 0, 500); // earlier tick: depth updates, no negative span
        r.finish(2_000);
        let rows = r.rows();
        assert_eq!(rows.len(), 2);
        assert!((rows[1].avg_rdq - 2.0).abs() < 1e-9);
    }
}
