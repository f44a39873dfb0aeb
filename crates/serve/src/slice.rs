//! One work unit's slice-and-checkpoint cycle: the daemon scheduler's
//! execution core, shared with the `chaos` crash-point explorer so that
//! the explorer crashes inside exactly the durability operations the
//! daemon performs.
//!
//! A unit in flight is an [`InFlight`]: a [`Resident`] simulation that
//! stays in memory between slices. Preempting it costs nothing but the
//! pause; its state reaches disk only through [`InFlight::checkpoint`],
//! which writes `unit-NNNNNN.snap` on a durability interval rather than
//! at every pause.

use dramctrl_campaign::runner::{JobArtifacts, ObsProbe, Resident, SliceOutcome};
use dramctrl_campaign::JobSpec;
use dramctrl_kernel::fsio::write_atomic;
use dramctrl_kernel::Tick;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// A work unit between slices.
#[derive(Debug)]
pub struct InFlight {
    sim: Sim,
    /// Injections the unit's on-disk checkpoint reflects (`0`: none).
    durable_at: u64,
}

/// The unit's resident simulation: plain, or carrying observability
/// probes (which are not snapshot state, so an observed unit is never
/// checkpointed to disk).
// An `InFlight` is boxed only when it parks; boxing the observed
// variant as well would cost an allocation per observed unit.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Sim {
    Plain(Resident),
    Observed(Resident<ObsProbe>),
}

impl InFlight {
    /// Starts `unit`: observed when `epochs > 0` (always from scratch),
    /// else resumed from its checkpoint `snap` when one exists.
    ///
    /// # Panics
    /// On an unreadable checkpoint, a checkpoint of another job, or an
    /// invalid job — the scheduler counts that as a failed attempt,
    /// deletes the checkpoint and restarts the unit from scratch.
    #[must_use]
    pub fn start(unit: JobSpec, epochs: Tick, snap: &Path) -> Self {
        if epochs > 0 {
            return Self {
                sim: Sim::Observed(Resident::observed(unit, epochs)),
                durable_at: 0,
            };
        }
        // A missing file is the common case (a unit's first slice), so
        // probe by reading rather than stat-then-read.
        let resident = match std::fs::read(snap) {
            Ok(bytes) => Resident::resume(unit, &bytes)
                .unwrap_or_else(|e| panic!("restoring checkpoint {}: {e}", snap.display())),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Resident::new(unit),
            Err(e) => panic!("reading checkpoint {}: {e}", snap.display()),
        };
        Self {
            durable_at: resident.injected(),
            sim: Sim::Plain(resident),
        }
    }

    /// Runs the unit until it completes or reaches the first request
    /// boundary at or past `quantum` more injections (`None`: until it
    /// completes).
    pub fn slice(&mut self, quantum: Option<u64>) -> SliceOutcome {
        match &mut self.sim {
            Sim::Plain(r) => r.slice(quantum.map(|q| r.injected() + q)),
            Sim::Observed(r) => r.slice(quantum.map(|q| r.injected() + q)),
        }
    }

    /// Whether the unit carries observability probes.
    #[must_use]
    pub fn is_observed(&self) -> bool {
        matches!(self.sim, Sim::Observed(_))
    }

    /// Writes the paused unit's snapshot atomically to `snap` if at
    /// least `every` requests were injected since the last durable
    /// checkpoint; observed units are never written. Returns how long
    /// the write took, or `None` when none was due. After a failed write
    /// the checkpoint is still owed, and the next call retries it.
    ///
    /// # Errors
    /// The store's write error.
    pub fn checkpoint(&mut self, snap: &Path, every: u64) -> io::Result<Option<Duration>> {
        let Sim::Plain(r) = &mut self.sim else {
            return Ok(None);
        };
        let injected = r.injected();
        if injected - self.durable_at < every {
            return Ok(None);
        }
        let started = Instant::now();
        write_atomic(snap, r.snapshot()).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("writing checkpoint {}: {e}", snap.display()),
            )
        })?;
        self.durable_at = injected;
        Ok(Some(started.elapsed()))
    }

    /// Retires a finished unit: an observed unit's rendered artifacts,
    /// or `None` after handing a plain unit's controller back to the
    /// thread's cache.
    #[must_use]
    pub fn finish(self) -> Option<JobArtifacts> {
        match self.sim {
            Sim::Plain(r) => {
                r.retire();
                None
            }
            Sim::Observed(r) => Some(r.artifacts()),
        }
    }
}
