//! The accept loop must not spin when `accept` keeps failing.
//!
//! The server runs as its own process with a file-descriptor limit of
//! 24. Forty held client connections exhaust it: each accepted
//! connection takes two descriptors, and the rest wait in the backlog
//! while every `accept` fails with "too many open files". The test reads
//! the server's CPU time from `/proc/<pid>/stat` over two seconds of
//! that state.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100
/// on every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// Kills and reaps the server however the test ends.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// User plus system CPU seconds of process `pid`.
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read stat");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let (_, tail) = stat.rsplit_once(')').expect("stat has a command name");
    let fields: Vec<&str> = tail.split_whitespace().collect();
    let ticks = |ix: usize| fields[ix].parse::<f64>().expect("tick count");
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

#[test]
fn failing_accept_does_not_spin() {
    let child = Command::new("sh")
        .args(["-c", "ulimit -n 24 && exec \"$0\" --addr 127.0.0.1:0"])
        .arg(env!("CARGO_BIN_EXE_pwrel-serve"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("start pwrel-serve");
    let mut server = Reaped(child);
    let mut stdout = BufReader::new(server.0.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listening line");
    let addr: SocketAddr = line
        .trim()
        .rsplit(' ')
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in {line:?}"));

    let held: Vec<TcpStream> = (0..40)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    let pid = server.0.id();
    let before = cpu_seconds(pid);
    std::thread::sleep(Duration::from_secs(2));
    let used = cpu_seconds(pid) - before;
    drop(held);
    assert!(
        used < 0.3,
        "server used {used:.2} s of CPU in 2 s with accept failing"
    );
}
