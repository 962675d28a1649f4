//! Process accounting from `/proc`, `hetmem serve` child processes, and
//! pinning to one CPU.
//!
//! CPU time is read as user+sys from `/proc/<pid>/stat`, which covers
//! every thread the process ever ran (exited ones included) and is not
//! inflated by host steal the way wall time is. Memory is `VmHWM` (peak
//! resident set) and `VmRSS` from `/proc/<pid>/status`.

use crate::http::Client;
use std::io::{BufRead as _, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `cpu_set_t` of `sched_setaffinity(2)`: a 1024-bit CPU mask.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// While alive, keeps the thread that made it on one CPU, and with it
/// every thread and child process that thread starts; on drop the thread
/// gets its old CPU set back (children keep the one CPU).
///
/// On a shared 2-vCPU VM a request that hops between two vCPUs waits for the
/// host to wake the idle one, and that wait grows with the host's load:
/// an unpinned `serve_zipf` run measured ~30 % steal and half the
/// requests/s of a pinned one on a busy host, against ~5 % steal pinned.
pub struct OneCpu {
    saved: CpuSet,
    /// The mask belongs to this thread: not `Send`.
    _thread: std::marker::PhantomData<*const ()>,
}

impl OneCpu {
    /// Pins the calling thread to the highest-numbered CPU it may run on.
    ///
    /// # Errors
    ///
    /// Returns a message when the CPU set cannot be read or set.
    pub fn pin() -> Result<OneCpu, String> {
        let mut saved: CpuSet = [0; 16];
        // SAFETY: `saved` is a writable `cpu_set_t`-sized buffer that
        // outlives the call, and the size passed is its size; pid 0 is
        // the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut saved) } != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        let word = saved
            .iter()
            .rposition(|&w| w != 0)
            .ok_or("sched_getaffinity: empty CPU set")?;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (63 - saved[word].leading_zeros());
        set_affinity(&one)?;
        Ok(OneCpu {
            saved,
            _thread: std::marker::PhantomData,
        })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // Widening back can only fail if the CPUs went offline meanwhile;
        // staying on one CPU is then the safe outcome.
        let _ = set_affinity(&self.saved);
    }
}

/// Sets the calling thread's CPU set to `mask`.
fn set_affinity(mask: &CpuSet) -> Result<(), String> {
    // SAFETY: `mask` is a valid `cpu_set_t`-sized buffer that outlives the
    // call, and the size passed is its size; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) } == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: u64 = 100;

/// User+sys CPU time consumed so far by process `pid` (`None`: this one).
///
/// # Errors
///
/// Returns a message when the stat file is missing or malformed.
pub fn cpu_time(pid: Option<u32>) -> Result<Duration, String> {
    let path = proc_path(pid, "stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesized command name, which may hold spaces.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: malformed"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of stat(5); `rest` starts at 3.
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("{path}: malformed field {}", i + 3))
    };
    let ticks = tick(11)? + tick(12)?;
    Ok(Duration::from_millis(ticks * 1000 / USER_HZ))
}

/// A `kB` field (`VmHWM`, `VmRSS`) of `/proc/<pid>/status`.
///
/// # Errors
///
/// Returns a message when the file or the field is missing.
pub fn status_kb(pid: Option<u32>, field: &str) -> Result<u64, String> {
    let path = proc_path(pid, "status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no {field}"))
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// A running `hetmem serve` child: this benchmark's own executable
/// re-entered as the `hetmem` CLI (see `main`), so the server is built
/// from the same source tree as every in-process call.
pub struct ServeChild {
    child: Child,
    // Read for the startup lines, then held open so the server never
    // writes to a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// The HTTP address the server bound.
    pub http: String,
    /// The cluster address, when started with `--advertise` or `--join`.
    pub cluster: Option<String>,
}

impl ServeChild {
    /// Spawns `hetmem serve <args>` and waits until it answers
    /// `GET /v1/health`.
    ///
    /// # Errors
    ///
    /// Returns a message when the process cannot start, exits early, or
    /// never becomes healthy.
    pub fn spawn(args: &[&str]) -> Result<ServeChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("hetmem")
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn hetmem serve: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = ServeChild {
            child,
            stdout,
            http: String::new(),
            cluster: None,
        };
        let clustered = args.iter().any(|a| *a == "--advertise" || *a == "--join");
        let mut line = String::new();
        while server.http.is_empty() || (clustered && server.cluster.is_none()) {
            line.clear();
            match server.stdout.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("hetmem serve exited before it was ready".into()),
                Ok(_) => {}
            }
            if let Some(addr) = line
                .trim()
                .strip_prefix("hetmem-serve listening on http://")
            {
                server.http = addr.to_owned();
            } else if let Some(addr) = line.trim().strip_prefix("hetmem-serve cluster on ") {
                server.cluster = Some(addr.to_owned());
            }
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut client = Client::new(&server.http);
        loop {
            if matches!(client.get("/v1/health"), Ok(r) if r.status == 200) {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "hetmem serve on {} never became healthy",
                    server.http
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The server's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains the server (`POST /v1/shutdown`) and waits for it to exit,
    /// killing it if the drain takes longer than 30 s.
    ///
    /// # Errors
    ///
    /// Returns a message when the server had to be killed or exited
    /// with a failure status.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = Client::new(&self.http).post("/v1/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("hetmem serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("hetmem serve did not drain within 30 s".into());
                }
            }
        }
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        // After `stop` the child has been reaped and this is a no-op; on
        // an error path it guarantees no server outlives the benchmark.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Creates `dir` empty, removing whatever was there.
///
/// # Errors
///
/// Returns a message when the directory cannot be reset.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Cpus_allowed_list` of this thread, as `/proc` shows it.
    fn allowed() -> String {
        let tid = std::fs::read_link("/proc/thread-self").expect("thread-self");
        let status =
            std::fs::read_to_string(Path::new("/proc").join(tid).join("status")).expect("status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .expect("Cpus_allowed_list")
            .trim()
            .to_owned()
    }

    #[test]
    fn pinning_narrows_to_one_cpu_and_drop_restores() {
        let before = allowed();
        let pinned = OneCpu::pin().expect("pin");
        let one = allowed();
        assert!(one.parse::<u32>().is_ok(), "one CPU, got {one:?}");
        let child = std::thread::spawn(allowed).join().expect("thread");
        assert_eq!(child, one, "threads started while pinned inherit the CPU");
        drop(pinned);
        assert_eq!(allowed(), before);
    }
}
