//! The operation clock: CPU time of the thread that runs an operation, scaled to a
//! fixed reference speed of the host.
//!
//! Every timed operation runs on one thread, and the clock reads that thread's CPU
//! time, so time the thread spent descheduled is not counted. The speed of the host
//! changes too: on a shared virtual machine (2 vCPUs of an Intel Xeon Sapphire
//! Rapids host) the same single-threaded operation ran 2–2.5× slower for an hour or
//! more at a time, with little steal time reported. So between operations the clock
//! times a fixed calibration search — benchmark code, not the program's — and
//! divides each operation's CPU time by the median of the recent calibration times.
//! A program change moves the scaled time as it moves the CPU time; a host that
//! runs everything slower moves neither, as far as the slow-down hits the
//! calibration and the program alike.

use std::collections::VecDeque;
use std::os::raw::{c_int, c_long};
use std::time::Instant;

use crate::stats::median;
use crate::tracer::Tracer;

/// CPU time the calling thread has used, in seconds (`CLOCK_THREAD_CPUTIME_ID`).
///
/// On a virtual machine with steal-time accounting the kernel leaves out of this
/// clock the time the hypervisor gave the thread's virtual CPU to someone else, as
/// it leaves out the time another process held the CPU.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    // The clock id and the layout of `Timespec` are those of 64-bit Linux.
    const _: () = assert!(cfg!(target_os = "linux") && std::mem::size_of::<c_long>() == 8);
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on 64-bit
    // Linux, asserted above) for the whole call, and the clock id is one Linux
    // defines; the call writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the calling thread's CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds of one calibration on the development host in its slower period
/// (see `NOTES.md`). Scaled times read as seconds on that host at that speed.
const REF_S: f64 = 3.0e-3;

/// Calibrations the scale is the median of.
const WINDOW: usize = 9;

/// Operation CPU time between two calibrations.
const EVERY_S: f64 = 0.2;

/// The calibration: breadth-first search of a fixed random graph of 2¹⁶ nodes
/// (a random tree plus 2¹⁶ random edges) in compressed adjacency arrays — the
/// kind of work the program does, in about 1.8 MB.
#[derive(Debug)]
struct Calibration {
    offsets: Vec<u32>,
    adjacent: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<u32>,
}

impl Calibration {
    const NODES: usize = 1 << 16;

    fn new() -> Self {
        let n = Self::NODES;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |bound: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound as u64) as u32
        };
        let mut edges: Vec<(u32, u32)> = (1..n).map(|v| (below(v), v as u32)).collect();
        edges.extend((0..n).map(|_| (below(n), below(n))));
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in &edges {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut fill = offsets.clone();
        let mut adjacent = vec![0u32; 2 * edges.len()];
        for &(a, b) in &edges {
            for (from, to) in [(a, b), (b, a)] {
                adjacent[fill[from as usize] as usize] = to;
                fill[from as usize] += 1;
            }
        }
        Calibration {
            offsets,
            adjacent,
            dist: vec![0; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// Bytes the calibration keeps resident for the whole run (every array is
    /// written by each search).
    fn resident_bytes(&self) -> usize {
        4 * (self.offsets.len() + self.adjacent.len() + self.dist.len() + Self::NODES)
    }

    /// CPU seconds of one search from node 0. An untimed search runs first, so that
    /// what the last operation left in the caches, the TLB and the branch
    /// predictors does not change the time.
    fn run(&mut self) -> f64 {
        self.search();
        let started = thread_cpu_s();
        self.search();
        thread_cpu_s() - started
    }

    fn search(&mut self) {
        self.dist.fill(u32::MAX);
        self.queue.clear();
        self.dist[0] = 0;
        self.queue.push(0);
        let mut head = 0;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            let v = v as usize;
            let d = self.dist[v] + 1;
            let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            for &u in &self.adjacent[lo..hi] {
                if self.dist[u as usize] == u32::MAX {
                    self.dist[u as usize] = d;
                    self.queue.push(u);
                }
            }
        }
        assert_eq!(self.queue.len(), Self::NODES, "the graph is connected");
        std::hint::black_box(&self.dist);
    }
}

/// Times the benchmark's operations on the thread that runs them (see the module
/// docs).
#[derive(Debug)]
pub struct OpClock {
    /// CPU seconds of every interval, as measured.
    pub cpu_s: f64,
    /// The same, scaled to the reference speed.
    pub scaled_s: f64,
    /// Wall seconds of the same intervals.
    pub wall_s: f64,
    calibration: Calibration,
    recent: VecDeque<f64>,
    since_calibration_s: f64,
}

/// A started interval of an [`OpClock`].
#[must_use]
pub struct Lap {
    cpu_s: f64,
    wall: Instant,
}

impl Default for OpClock {
    fn default() -> Self {
        OpClock {
            cpu_s: 0.0,
            scaled_s: 0.0,
            wall_s: 0.0,
            calibration: Calibration::new(),
            recent: VecDeque::with_capacity(WINDOW),
            since_calibration_s: 0.0,
        }
    }
}

impl OpClock {
    /// Starts an interval. Calibrates first when [`EVERY_S`] of operation time has
    /// passed since the last calibration, and [`WINDOW`] times before the first
    /// interval; a traced pass records each calibration as a harness span.
    pub fn start(&mut self, tr: &mut Tracer) -> Lap {
        let times = match self.recent.len() {
            0 => WINDOW,
            _ if self.since_calibration_s >= EVERY_S => 1,
            _ => 0,
        };
        for _ in 0..times {
            tr.harness("bench.calibrate", || self.calibrate());
        }
        Lap {
            cpu_s: thread_cpu_s(),
            wall: Instant::now(),
        }
    }

    fn calibrate(&mut self) {
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(self.calibration.run());
        self.since_calibration_s = 0.0;
    }

    /// Ends `lap`, adds it to the totals, and returns its scaled seconds.
    pub fn stop(&mut self, lap: Lap) -> f64 {
        let cpu_s = thread_cpu_s() - lap.cpu_s;
        let scaled_s = cpu_s * REF_S / median(self.recent.make_contiguous());
        self.cpu_s += cpu_s;
        self.scaled_s += scaled_s;
        self.wall_s += lap.wall.elapsed().as_secs_f64();
        self.since_calibration_s += cpu_s;
        scaled_s
    }

    /// CPU time over wall time of every interval (1 when nothing took the CPU away).
    pub fn cpu_share(&self) -> f64 {
        ratio(self.cpu_s, self.wall_s)
    }

    /// The host's speed relative to the reference over every interval (scaled time
    /// over CPU time).
    pub fn host_speed(&self) -> f64 {
        ratio(self.scaled_s, self.cpu_s)
    }

    /// Peak resident memory of the process so far, less what the calibration keeps
    /// resident, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        crate::stats::peak_rss_mib() - self.calibration.resident_bytes() as f64 / (1 << 20) as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_op_clock_counts_work_and_not_sleep() {
        let mut clock = OpClock::default();
        let mut tr = Tracer::off();
        let lap = clock.start(&mut tr);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = clock.stop(lap);
        assert!(slept < 0.01, "sleeping uses no CPU: {slept}");
        let lap = clock.start(&mut tr);
        let mut x = 1u64;
        while thread_cpu_s() - lap.cpu_s < 0.02 {
            for _ in 0..100_000 {
                x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005) ^ 1);
            }
        }
        let worked = clock.stop(lap);
        assert!(worked > 0.0 && clock.cpu_s >= 0.02, "spinning uses CPU");
        assert!(clock.wall_s >= 0.05 && clock.cpu_share() < 1.0);
        assert!((clock.scaled_s / clock.cpu_s - clock.host_speed()).abs() < 1e-12);
    }
}
