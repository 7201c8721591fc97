//! A user-space sampling profiler for one child process, std only.
//!
//! Run with:
//! `cargo run --release --example profile -- [--top N] [--symbol NAME] -- CMD ARGS…`
//!
//! It starts `CMD`, samples it (every thread, also those started later) on
//! a 10 kHz CPU clock through `perf_event_open(2)`, one ring buffer per
//! CPU, and at its exit prints the top `N` (default 12) symbols per thread
//! from `nm -C -n`. `--symbol NAME` also prints per-instruction sample
//! counts for the first symbol whose name contains `NAME`, at the addresses
//! `objdump -d` shows. Only user space is sampled (`exclude_kernel`), which
//! `perf_event_paranoid` ≤ 2 allows on one's own processes: time in the
//! kernel — futex sleeps and wakes, `membarrier` — is invisible here.
//! Linux on x86-64 only; the syscalls are issued directly.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::arch::asm;
    use std::collections::{BTreeMap, HashMap};
    use std::io::Write;
    use std::process::{Command, Stdio};
    use std::time::Duration;

    const PAGES: usize = 64; // data pages per CPU buffer
    const PAGE: usize = 4096;

    unsafe fn syscall(n: usize, a: [usize; 6]) -> isize {
        let ret: isize;
        unsafe {
            asm!("syscall", inlateout("rax") n as isize => ret,
                in("rdi") a[0], in("rsi") a[1], in("rdx") a[2],
                in("r10") a[3], in("r8") a[4], in("r9") a[5],
                lateout("rcx") _, lateout("r11") _, options(nostack));
        }
        ret
    }

    /// One CPU's sample buffer: the metadata page, then `PAGES` of data.
    /// Unmapped, and its event closed, when the profiler exits.
    struct Buffer {
        base: *mut u8,
    }

    impl Buffer {
        /// Opens a user-space CPU-clock sampler on `pid` and its future
        /// threads on `cpu`, armed to start at the child's `exec`.
        fn open(pid: i32, cpu: usize) -> Buffer {
            let mut attr = [0u64; 16]; // struct perf_event_attr, 128 bytes
            attr[0] = 1 | (128 << 32); // PERF_TYPE_SOFTWARE, size
            attr[1] = 0; // PERF_COUNT_SW_CPU_CLOCK
            attr[2] = 100_000; // sample period: 100 µs of CPU time
            attr[3] = 1 | 2; // PERF_SAMPLE_IP | PERF_SAMPLE_TID
            attr[5] = 1 | 2 | (1 << 5) | (1 << 6) | (1 << 12); // see below
                                                               // (disabled, inherit, exclude_kernel, exclude_hv, enable_on_exec)
            let ptr = attr.as_ptr() as usize;
            let fd = unsafe { syscall(298, [ptr, pid as usize, cpu, usize::MAX, 0, 0]) };
            assert!(fd >= 0, "perf_event_open on cpu {cpu}: errno {}", -fd);
            let len = (PAGES + 1) * PAGE;
            // mmap(NULL, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0)
            let base = unsafe { syscall(9, [0, len, 3, 1, fd as usize, 0]) };
            assert!(base > 0, "mmap of the sample buffer: errno {}", -base);
            Buffer {
                base: base as *mut u8,
            }
        }

        /// Moves every complete record out of the ring: `(tid, ip)` pairs.
        fn drain(&self, out: &mut Vec<(u32, u64)>) {
            use std::sync::atomic::{AtomicU64, Ordering::*};
            let word = |off: usize| unsafe { &*(self.base.add(off) as *const AtomicU64) };
            let (head, tail) = (word(1024).load(Acquire), word(1032).load(Relaxed));
            let data = unsafe { self.base.add(PAGE) };
            let byte = |at: u64| unsafe { *data.add(at as usize % (PAGES * PAGE)) };
            let read =
                |at: u64, n: u64| (0..n).fold(0u64, |v, i| v | (byte(at + i) as u64) << (8 * i));
            let mut at = tail;
            while at < head {
                let (kind, size) = (read(at, 4), read(at + 6, 2));
                if kind == 9 {
                    // PERF_RECORD_SAMPLE: header, ip, pid, tid
                    out.push((read(at + 20, 4) as u32, read(at + 8, 8)));
                }
                at += size.max(8);
            }
            word(1032).store(head, Release);
        }
    }

    fn online_cpus() -> Vec<usize> {
        let list = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap();
        let mut cpus = Vec::new();
        for part in list.trim().split(',') {
            let (a, b) = part.split_once('-').unwrap_or((part, part));
            cpus.extend(a.parse::<usize>().unwrap()..=b.parse().unwrap());
        }
        cpus
    }

    /// `(address, name)` of every text symbol of `exe`, by address.
    fn symbols(exe: &str) -> Vec<(u64, String)> {
        let out = Command::new("nm")
            .args(["-C", "-n", exe])
            .output()
            .expect("nm");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|l| {
                let (addr, rest) = l.split_once(' ')?;
                let (kind, name) = rest.split_once(' ')?;
                if !matches!(kind, "t" | "T" | "W" | "w") {
                    return None;
                }
                Some((u64::from_str_radix(addr, 16).ok()?, name.to_string()))
            })
            .collect()
    }

    pub fn main() {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let split = args
            .iter()
            .position(|a| a == "--")
            .expect("usage: profile [--top N] [--symbol NAME] -- CMD ARGS…");
        let (opts, cmd) = (&args[..split], &args[split + 1..]);
        let opt = |name: &str| {
            opts.iter()
                .position(|o| o == name)
                .map(|i| opts[i + 1].clone())
        };
        let top: usize = opt("--top").map_or(12, |n| n.parse().expect("--top N"));
        let focus = opt("--symbol");

        // The child is a shell that waits for a line on its stdin before it
        // `exec`s the command, so the samplers, armed to start at that
        // `exec`, see every thread the command starts.
        let mut child = Command::new("sh")
            .args(["-c", "read _; exec \"$@\" </dev/null", "profile"])
            .args(cmd)
            .stdin(Stdio::piped())
            .spawn()
            .expect("spawn sh");
        let pid = child.id() as i32;
        let shell = std::fs::read_link(format!("/proc/{pid}/exe")).ok();
        let buffers: Vec<Buffer> = online_cpus()
            .into_iter()
            .map(|c| Buffer::open(pid, c))
            .collect();
        writeln!(child.stdin.take().unwrap()).unwrap();

        let (mut samples, mut names, mut exe) = (Vec::new(), HashMap::new(), None);
        let status = loop {
            std::thread::sleep(Duration::from_millis(10));
            buffers.iter().for_each(|b| b.drain(&mut samples));
            // Learn where the (PIE) executable is mapped, and the thread
            // names, while the child lives.
            let path = std::fs::read_link(format!("/proc/{pid}/exe")).ok();
            if exe.is_none() && path != shell {
                let path = path.map_or(String::new(), |p| p.to_string_lossy().into_owned());
                let maps = std::fs::read_to_string(format!("/proc/{pid}/maps")).unwrap_or_default();
                let hex = |s: &str| u64::from_str_radix(s, 16).ok();
                let ranges: Vec<(u64, u64)> = (maps.lines().filter(|l| l.ends_with(&path)))
                    .filter_map(|l| {
                        let (a, b) = l.split_whitespace().next()?.split_once('-')?;
                        Some((hex(a)?, hex(b)?))
                    })
                    .collect();
                exe = (ranges.first()).map(|r| (r.0, ranges.last().unwrap().1, path));
            }
            let tasks = std::fs::read_dir(format!("/proc/{pid}/task"));
            for task in tasks.into_iter().flatten().flatten() {
                let tid = task.file_name().to_string_lossy().parse().unwrap_or(0);
                let comm = std::fs::read_to_string(task.path().join("comm"));
                names.insert(tid, comm.unwrap_or_default().trim().to_string());
            }
            if let Some(status) = child.try_wait().unwrap() {
                break status;
            }
        };
        buffers.iter().for_each(|b| b.drain(&mut samples));
        let (bias, end, exe) = exe.expect("the child's executable mapping");
        let syms = symbols(&exe);
        // `None`: outside the executable (libc, the vDSO's clock).
        let symbol_of = |ip: u64| -> Option<usize> {
            let i = syms.partition_point(|(a, _)| *a <= ip.wrapping_sub(bias));
            (bias..end).contains(&ip).then_some(i.checked_sub(1)?)
        };

        eprintln!(
            "# {} samples of 100 µs CPU time, {status}; kernel time not sampled",
            samples.len()
        );
        let mut per_thread: BTreeMap<u32, HashMap<Option<usize>, u64>> = BTreeMap::new();
        for &(tid, ip) in &samples {
            *per_thread
                .entry(tid)
                .or_default()
                .entry(symbol_of(ip))
                .or_default() += 1;
        }
        // Threads with under 1 % of the samples are left out.
        for (tid, counts) in &per_thread {
            let total: u64 = counts.values().sum();
            if total * 100 < samples.len() as u64 {
                continue;
            }
            let name = names.get(tid).map_or("?", String::as_str);
            println!("thread {tid} ({name}): {total} samples");
            let mut rows: Vec<_> = counts.iter().collect();
            rows.sort_by(|a, b| b.1.cmp(a.1));
            for (sym, n) in rows.into_iter().take(top) {
                let label = sym.map_or("[outside the executable: libc, vDSO]", |i| {
                    syms[i].1.as_str()
                });
                println!("  {:5.1} %  {label}", 100.0 * *n as f64 / total as f64);
            }
        }
        if let Some(focus) = focus {
            let Some(target) = syms.iter().position(|(_, n)| n.contains(&focus)) else {
                return println!("no symbol contains {focus:?}");
            };
            let mut at: BTreeMap<u64, u64> = BTreeMap::new();
            for &(_, ip) in samples
                .iter()
                .filter(|(_, ip)| symbol_of(*ip) == Some(target))
            {
                *at.entry(ip - bias).or_default() += 1;
            }
            let total: u64 = at.values().sum();
            println!("{}: {total} samples", syms[target].1);
            for (addr, n) in at {
                println!(
                    "  {addr:8x}  {n:6}  {:5.1} %",
                    100.0 * n as f64 / total as f64
                );
            }
        }
    }
}

fn main() {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    sampler::main();
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    eprintln!("profile: Linux on x86-64 only");
}
