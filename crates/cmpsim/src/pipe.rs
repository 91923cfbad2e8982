//! Front-end workers: a replay's front ends, run ahead of its back end.
//!
//! A core's steps depend only on its own stream (see [`crate::front`]),
//! so its front end can run on another thread. A replay with decode
//! workers spreads its cores round robin over `min(workers, cores)`
//! threads. Each worker runs its cores' live front ends core-relative
//! (as core 0, like a step tape's filler) and encodes their steps in the
//! tape's byte code, [`CHUNK`] steps to a chunk and at most [`AHEAD`]
//! chunks ahead of each core's [`StepReader`], which decodes them with
//! the tape's per-step code.
//!
//! The buffers are the flow control. A reader that takes a chunk hands
//! its spent buffer back, and each buffer handed back is room for one
//! more chunk. A reader hands over its first [`AHEAD`] buffers at its
//! core's first step, so a worker makes nothing before the simulation
//! starts. A worker fills the core with the most room and waits only
//! when none has any, so it never blocks on one core while another
//! starves.
//!
//! A worker does not panic when a stream stops. It pulls records through
//! the fallible step ([`TraceSource::try_next_record`]), so a stream that
//! ran dry, a gap above the cap or a corrupt chunk follows the core's
//! last steps as an end marker. The marker carries the message the
//! source would have panicked with. The reader hands it to `System::run`
//! on the simulating thread, which panics with it only when its core's
//! turn for that step comes. A worker
//! returns once every reader of its cores is gone, and the last of them
//! to drop joins it, so dropping the `System` that owns the readers joins
//! its workers.
//!
//! [`TraceSource::try_next_record`]: tracegen::TraceSource::try_next_record

use crate::front::{LiveFront, Step};
use crate::tape::{encode, StepReader, CHUNK};
use std::io;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};

/// Chunks a worker keeps ready per core, on top of the one its reader
/// decodes.
const AHEAD: usize = 4;

/// One chunk on its way to a reader: encoded steps, or why the core's
/// stream stopped.
type Chunk = Result<Vec<u8>, String>;

/// A reader's end of its core's pipe.
#[derive(Debug)]
pub(crate) struct Pipe {
    chunks: Receiver<Chunk>,
    /// Spent buffers back to the worker, tagged with the core's lane.
    spent: Sender<(usize, Vec<u8>)>,
    lane: usize,
    started: bool,
    /// The worker's thread, shared by the readers of its cores. It drops
    /// after `spent`, so the last reader to go joins a worker that has no
    /// reader left to wait for.
    _worker: Arc<Worker>,
}

impl Pipe {
    /// Hand `buf`, decoded, back to the worker and take the core's next
    /// chunk in its place; at the end of a stopped stream, the source's
    /// message instead.
    pub(crate) fn next_chunk(&mut self, buf: &mut Vec<u8>) -> Result<(), String> {
        if !self.started {
            self.started = true;
            for _ in 1..AHEAD {
                // A worker that went away shows in the receive below.
                let _ = self.spent.send((self.lane, Vec::new()));
            }
        }
        let _ = self.spent.send((self.lane, std::mem::take(buf)));
        match self.chunks.recv() {
            Ok(chunk) => *buf = chunk?,
            Err(_) => return Err("a front-end worker stopped before its stream ended".into()),
        }
        Ok(())
    }
}

/// A worker's thread, once started; joined on drop.
#[derive(Debug, Default)]
struct Worker(OnceLock<JoinHandle<()>>);

impl Drop for Worker {
    fn drop(&mut self) {
        if let Some(thread) = self.0.take() {
            // A worker that panicked dropped its pipes, and the reader
            // that needed them panicked already.
            let _ = thread.join();
        }
    }
}

/// One core's front end on a worker.
struct Lane {
    front: LiveFront,
    /// The reader's pipe; gone once the stream stopped or the reader hung
    /// up.
    chunks: Option<Sender<Chunk>>,
    /// Spent buffers handed back: room for one chunk each.
    room: Vec<Vec<u8>>,
}

impl Lane {
    /// Make the next chunk in a spent buffer and send it; after the last
    /// steps of a stopped stream, send why and close the pipe.
    fn fill(&mut self, step: &mut Step) {
        let Some(chunks) = &self.chunks else {
            return;
        };
        let mut buf = self.room.pop().unwrap_or_default();
        buf.clear();
        let mut stop = Ok(());
        for _ in 0..CHUNK {
            stop = self.front.try_next_step(step);
            if stop.is_err() {
                break;
            }
            encode(step, &mut buf);
        }
        let sent = chunks.send(Ok(buf)).is_ok();
        if let Err(why) = stop {
            let _ = chunks.send(Err(why));
            self.chunks = None;
        } else if !sent {
            self.chunks = None;
        }
    }
}

/// One worker's share of the cores, before its thread starts.
pub(crate) struct Job {
    lanes: Vec<Lane>,
    spent: Receiver<(usize, Vec<u8>)>,
    worker: Arc<Worker>,
}

impl Job {
    /// Start the worker's thread, `index`-th of its replay. The thread
    /// takes the lanes and the spent buffers' receiver, not the handle
    /// its readers join it through.
    pub(crate) fn spawn(self, index: usize) -> io::Result<()> {
        let Job {
            mut lanes,
            spent,
            worker,
        } = self;
        let thread = thread::Builder::new()
            .name(format!("front-{index}"))
            .spawn(move || run(&mut lanes, &spent))?;
        // A job starts once, so the cell is empty.
        let _ = worker.0.set(thread);
        Ok(())
    }
}

/// A worker's loop: fill its lanes as their readers make room.
fn run(lanes: &mut [Lane], spent: &Receiver<(usize, Vec<u8>)>) {
    let mut step = Step::default();
    loop {
        while let Ok((lane, buf)) = spent.try_recv() {
            lanes[lane].room.push(buf);
        }
        let roomiest = lanes
            .iter_mut()
            .filter(|l| l.chunks.is_some())
            .max_by_key(|l| l.room.len());
        match roomiest {
            Some(lane) if !lane.room.is_empty() => lane.fill(&mut step),
            // No room anywhere: wait for a reader. With every reader gone,
            // the replay is over.
            _ => match spent.recv() {
                Ok((lane, buf)) => lanes[lane].room.push(buf),
                Err(_) => return,
            },
        }
    }
}

/// Spread `fronts` — core `i`'s front end at index `i`, built as core 0's
/// — round robin over `min(workers, cores)` jobs. Returns each core's
/// reader, in core order, and the jobs, whose threads the caller starts;
/// dropping the readers joins the threads started.
pub(crate) fn connect(fronts: Vec<LiveFront>, workers: usize) -> (Vec<StepReader>, Vec<Job>) {
    let threads = workers.min(fronts.len()).max(1);
    let (mut jobs, mut spent) = (Vec::new(), Vec::new());
    for _ in 0..threads {
        let (tx, rx) = mpsc::channel();
        jobs.push(Job {
            lanes: Vec::new(),
            spent: rx,
            worker: Arc::default(),
        });
        spent.push(tx);
    }
    // The readers hold the only senders of spent buffers, so a worker
    // returns once its readers are gone.
    let readers = fronts
        .into_iter()
        .enumerate()
        .map(|(core, front)| {
            let job = &mut jobs[core % threads];
            let (tx, rx) = mpsc::channel();
            let pipe = Pipe {
                chunks: rx,
                spent: spent[core % threads].clone(),
                lane: job.lanes.len(),
                started: false,
                _worker: job.worker.clone(),
            };
            job.lanes.push(Lane {
                front,
                chunks: Some(tx),
                room: Vec::new(),
            });
            StepReader::piped(pipe, core)
        })
        .collect();
    (readers, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tracegen::{benchmark, MemRecord, TraceGenerator, TraceSource};

    /// A generator's stream that stops after `left` records, counting
    /// the records pulled and saying when the count reaches `signal`'s.
    #[derive(Debug)]
    struct Stops {
        gen: TraceGenerator,
        left: usize,
        pulled: Arc<AtomicUsize>,
        signal: Option<(usize, Sender<()>)>,
    }

    impl TraceSource for Stops {
        fn next_record(&mut self) -> MemRecord {
            self.try_next_record()
                .unwrap_or_else(|stop| panic!("{stop}"))
        }

        fn try_next_record(&mut self) -> Result<MemRecord, String> {
            if self.left == 0 {
                return Err("the stream stopped".into());
            }
            self.left -= 1;
            let pulled = self.pulled.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some((at, signal)) = &self.signal {
                if pulled == *at {
                    let _ = signal.send(());
                }
            }
            Ok(self.gen.next_record())
        }
    }

    /// Core `core`'s live front end over mcf's stream, stopping after
    /// `left` records.
    fn front(core: usize, left: usize, pulled: &Arc<AtomicUsize>) -> LiveFront {
        signalling(core, left, pulled, None)
    }

    /// [`front`] over a [`Stops`] with `signal`.
    fn signalling(
        core: usize,
        left: usize,
        pulled: &Arc<AtomicUsize>,
        signal: Option<(usize, Sender<()>)>,
    ) -> LiveFront {
        let cfg = MachineConfig::paper_baseline(1);
        let profile = benchmark("mcf").unwrap();
        let source = Stops {
            gen: TraceGenerator::new(profile.clone(), 9),
            left,
            pulled: pulled.clone(),
            signal,
        };
        LiveFront::new(core, &profile, Box::new(source), &cfg)
    }

    #[test]
    fn cores_spread_round_robin_over_no_more_threads_than_cores() {
        let pulled = Arc::default();
        for (cores, workers, lanes) in [
            (4, 1, vec![4]),
            (4, 2, vec![2, 2]),
            (5, 2, vec![3, 2]),
            (4, 8, vec![1, 1, 1, 1]),
        ] {
            let fronts = (0..cores).map(|_| front(0, 10, &pulled)).collect();
            let (readers, jobs) = connect(fronts, workers);
            assert_eq!(readers.len(), cores);
            let got: Vec<usize> = jobs.iter().map(|j| j.lanes.len()).collect();
            assert_eq!(got, lanes, "{cores} cores on {workers} workers");
        }
    }

    #[test]
    fn a_reader_gets_the_live_steps_then_the_stop_where_it_happened() {
        // The stream stops on a chunk's first step (the worker then sends
        // an empty chunk before the end) and inside a chunk.
        for left in [2 * CHUNK, 2 * CHUNK + 300] {
            let pulled = Arc::default();
            let mut live = front(1, left, &pulled);
            let mut step = Step::default();
            let mut want = Vec::new();
            while live.try_next_step(&mut step).is_ok() {
                want.push(step.clone());
            }
            assert_eq!(want.len(), left);

            // Core 1's stream, core-relative, beside a core that never
            // starts, on one worker.
            let fronts = vec![front(0, 10, &pulled), front(0, left, &pulled)];
            let (mut readers, jobs) = connect(fronts, 1);
            for (i, job) in jobs.into_iter().enumerate() {
                job.spawn(i).unwrap();
            }
            let mut reader = readers.pop().unwrap();
            for (i, w) in want.iter().enumerate() {
                reader.next_step(&mut step);
                assert_eq!(&step, w, "step {i} of {left}");
            }
            let stop = catch_unwind(AssertUnwindSafe(|| reader.next_step(&mut step)))
                .expect_err("the step past the stop panics");
            assert_eq!(
                stop.downcast_ref::<String>().map(String::as_str),
                Some("the stream stopped")
            );
            // The last reader joins the worker, which returns once its
            // readers are gone.
            drop((reader, readers));
        }
    }

    #[test]
    fn a_worker_reads_ahead_only_from_the_first_step_and_a_constant_way() {
        let pulled = Arc::new(AtomicUsize::new(0));
        let (readers, jobs) = connect(vec![front(0, usize::MAX, &pulled)], 1);
        jobs.into_iter().next().unwrap().spawn(0).unwrap();
        // Dropping the readers joins the worker.
        drop(readers);
        assert_eq!(pulled.load(Ordering::Relaxed), 0, "nothing before a step");

        // One step hands the worker room for `AHEAD` chunks; once it has
        // made them, it waits for more room rather than read on.
        let (reached, made_all) = mpsc::channel();
        let front = signalling(0, usize::MAX, &pulled, Some((AHEAD * CHUNK, reached)));
        let (mut readers, jobs) = connect(vec![front], 1);
        jobs.into_iter().next().unwrap().spawn(0).unwrap();
        readers[0].next_step(&mut Step::default());
        made_all.recv().expect("the worker fills its room");
        drop(readers);
        assert_eq!(pulled.load(Ordering::Relaxed), AHEAD * CHUNK);
    }
}
