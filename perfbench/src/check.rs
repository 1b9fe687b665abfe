//! Correctness of every trial: accounting invariants each `RunReport`
//! must satisfy, and a digest of all reports so two runs with the same
//! seed can be compared exactly.

use gossip_core::report::RunReport;

/// What a report must satisfy on its workload.
#[derive(Clone, Copy, Debug)]
pub struct Expect {
    /// Workload rumors per trial (`K`); 0 without traffic.
    pub rumors: u32,
    /// Whether the trial must inform every alive node.
    pub success: bool,
}

/// Checks one report, naming the first broken invariant.
///
/// Coverage below 1 is a finding, not a failure, unless `expect.success`
/// demands it (restricted addressing and the storm churn profile
/// legitimately strand nodes).
///
/// # Errors
///
/// Returns the broken invariant with the values that break it.
pub fn check(r: &RunReport, expect: Expect) -> Result<(), String> {
    if r.informed > r.alive {
        return Err(format!("informed {} > alive {}", r.informed, r.alive));
    }
    if r.success != (r.informed == r.alive) {
        return Err(format!(
            "success {} but informed {} of alive {}",
            r.success, r.informed, r.alive
        ));
    }
    if r.payload_messages > r.messages {
        return Err(format!(
            "payload_messages {} > messages {}",
            r.payload_messages, r.messages
        ));
    }
    let floor = r.messages.saturating_mul(phonecall::id_bits(r.n));
    if r.bits < floor {
        return Err(format!(
            "bits {} < messages {} x id_bits {}",
            r.bits,
            r.messages,
            phonecall::id_bits(r.n)
        ));
    }
    if r.rumors_completed() > expect.rumors as usize {
        return Err(format!(
            "{} rumors completed, workload injects {}",
            r.rumors_completed(),
            expect.rumors
        ));
    }
    if expect.success && !r.success {
        return Err(format!(
            "broadcast incomplete: {} of {} alive nodes informed",
            r.informed, r.alive
        ));
    }
    Ok(())
}

/// FNV-1a over the `Debug` rendering of every report, in order. `Debug`
/// prints floats in shortest round-trip form, so equal digests mean
/// bit-identical reports.
pub fn digest<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in reports {
        for b in format!("{r:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::algo::{Algorithm, Scenario, CLUSTER2};

    fn report() -> RunReport {
        CLUSTER2.run(&Scenario::broadcast(256).seed(3))
    }

    const PLAIN: Expect = Expect {
        rumors: 0,
        success: true,
    };

    #[test]
    fn accepts_a_real_report() {
        assert_eq!(check(&report(), PLAIN), Ok(()));
    }

    /// A named way to break a report.
    type Doctor = (&'static str, fn(&mut RunReport));

    #[test]
    fn rejects_doctored_reports() {
        let base = report();
        let doctored: [Doctor; 6] = [
            ("informed", |r| r.informed = r.alive + 1),
            ("success", |r| {
                r.informed -= 1;
            }),
            ("payload_messages", |r| r.payload_messages = r.messages + 1),
            ("bits", |r| r.bits = r.messages),
            ("rumors", |r| {
                r.rumors.push(phonecall::RumorStatus {
                    origin: 0,
                    arrival: 0,
                    completed: Some(0),
                    informed: 1,
                });
            }),
            ("incomplete", |r| {
                r.informed -= 1;
                r.success = false;
            }),
        ];
        for (what, doctor) in doctored {
            let mut r = base.clone();
            doctor(&mut r);
            assert!(check(&r, PLAIN).is_err(), "{what} passed the check");
        }
        // Incomplete coverage is allowed where the workload expects it.
        let mut r = base;
        r.informed -= 1;
        r.success = false;
        let lenient = Expect {
            success: false,
            ..PLAIN
        };
        assert_eq!(check(&r, lenient), Ok(()));
    }

    #[test]
    fn digest_sees_every_field() {
        let a = report();
        let mut b = a.clone();
        assert_eq!(digest([&a]), digest([&b]));
        b.virtual_time = f64::from_bits(b.virtual_time.to_bits() + 1);
        assert_ne!(digest([&a]), digest([&b]));
        assert_ne!(digest([&a, &a]), digest([&a]), "order and count matter");
    }
}
