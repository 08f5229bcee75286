//! Pins the simulator's output bit for bit.
//!
//! Each case replays one paper application through a request crossbar and
//! its response traffic through a response crossbar — full, shared and the
//! methodology's designed configuration — at outstanding depths 1 and 4,
//! under every arbitration policy. A 64-bit FNV-1a digest of each
//! direction's `SimReport` (every packet record, per-bus busy cycles and
//! grants, horizon) must match the digest recorded before the engine's
//! event loop was reworked, so any change to grant order or timing shows
//! up here as a named case.

use stbus::sim::{simulate_with, Arbitration, CrossbarConfig, SimOptions, SimReport};
use stbus::traffic::workloads;

/// Designed crossbars of `paper_suite(42)` at the paper parameters:
/// `(app, request-path assignment, response-path assignment)`. Frozen here
/// so the digests pin the simulator, not the synthesis.
const DESIGNED: [(&str, &[usize], &[usize]); 5] = [
    (
        "Mat1",
        &[3, 0, 0, 0, 1, 3, 1, 3, 1, 2, 2, 2, 2],
        &[3, 1, 0, 0, 2, 2, 1, 3, 1, 2, 0, 3],
    ),
    (
        "Mat2",
        &[2, 2, 2, 1, 1, 0, 0, 0, 1, 0, 1, 2],
        &[2, 1, 0, 1, 2, 2, 0, 0, 1],
    ),
    (
        "FFT",
        &[3, 4, 6, 1, 2, 5, 0, 4, 3, 7, 6, 1, 2, 5, 0],
        &[4, 6, 3, 2, 1, 5, 0, 4, 3, 6, 2, 1, 5, 0],
    ),
    ("QSort", &[0, 0, 1, 1, 2, 2, 2, 1, 2], &[2, 2, 0, 0, 1, 1]),
    (
        "DES",
        &[1, 2, 2, 2, 1, 1, 0, 0, 1, 0, 0],
        &[0, 2, 1, 2, 1, 0, 1, 0],
    ),
];

/// Recorded digests, one line per case: `app config depth arbitration`
/// then the request-path and response-path digests.
const EXPECTED: &str = "
    Mat1 full 1 FixedPriority d832e371ece85db7 79c3017c8f57e87c
    Mat1 full 1 RoundRobin 09e08f553690426c 563f10a5d25cb52c
    Mat1 full 1 LeastRecentlyUsed 8ebf2266c7552894 33b617b55c032b3c
    Mat1 full 4 FixedPriority 0981f759a67e4fcf 47205aa3192a5ab8
    Mat1 full 4 RoundRobin 74ac2bf90ed9ea0f 0da003f4f878e140
    Mat1 full 4 LeastRecentlyUsed cdd375a0fc28a10f 9bd44a8cd4e05ff8
    Mat1 shared 1 FixedPriority 56f685fd1a9fdf6d a7ff81e06b6fc24e
    Mat1 shared 1 RoundRobin 15b5455a1505d6a9 f11e8a7668dc2da2
    Mat1 shared 1 LeastRecentlyUsed 8862c06daaf8ad8e 6cd025847e3236d2
    Mat1 shared 4 FixedPriority 7fd71b6d732f478a a7ff81e06b6fc24e
    Mat1 shared 4 RoundRobin 70c2ba98e88f679c f11e8a7668dc2da2
    Mat1 shared 4 LeastRecentlyUsed 2d0616c63b690c36 6cd025847e3236d2
    Mat1 designed 1 FixedPriority 88dd9b4d5f984d53 836f8e84e59d7b75
    Mat1 designed 1 RoundRobin b38153387e067c20 d1d36d0dc2406b65
    Mat1 designed 1 LeastRecentlyUsed b38153387e067c20 d1d36d0dc2406b65
    Mat1 designed 4 FixedPriority 8204694237081d72 42b0632d10ec1e3d
    Mat1 designed 4 RoundRobin c55bc390ac2d39c2 d14bbe8930582c89
    Mat1 designed 4 LeastRecentlyUsed c55bc390ac2d39c2 d14bbe8930582c89
    Mat2 full 1 FixedPriority 09a8412a61d67166 d86b5fbfdcb5a25a
    Mat2 full 1 RoundRobin 3b26b1c1f2b1ec7b dbe006c81b582d72
    Mat2 full 1 LeastRecentlyUsed 3b26b1c1f2b1ec7b dbe006c81b582d72
    Mat2 full 4 FixedPriority 29015c40ea2cb800 441defcce4f24336
    Mat2 full 4 RoundRobin 1677eead6e7732c8 6d7cfe20c26e6ef6
    Mat2 full 4 LeastRecentlyUsed 1677eead6e7732c8 6d7cfe20c26e6ef6
    Mat2 shared 1 FixedPriority bace6b2f48bc2efc a0160ecc1e412398
    Mat2 shared 1 RoundRobin a0c7375d2a50ca67 acb78a3617c88d38
    Mat2 shared 1 LeastRecentlyUsed 6f178ebb8a132c1e 39e58187baaa5f00
    Mat2 shared 4 FixedPriority 5ad8b1c7b3970d25 a0160ecc1e412398
    Mat2 shared 4 RoundRobin df8c79ffb276e1c4 acb78a3617c88d38
    Mat2 shared 4 LeastRecentlyUsed 3588b3bdd29fea34 39e58187baaa5f00
    Mat2 designed 1 FixedPriority 107679baab783f04 6e292fef07f8a24c
    Mat2 designed 1 RoundRobin 57c0398d16021db1 d17ca2529c1229d0
    Mat2 designed 1 LeastRecentlyUsed 86c9d153ff693eca 8e7d7b3a76880118
    Mat2 designed 4 FixedPriority cce926a98a54cbaa 83181fed2d180cbc
    Mat2 designed 4 RoundRobin c3f794055b3e349e 6aac3003bdf682d4
    Mat2 designed 4 LeastRecentlyUsed 3edf28051d7cc856 23b9949b93c673d0
    FFT full 1 FixedPriority 3989f07c83256e0c dcf42e24a89ab115
    FFT full 1 RoundRobin 80f3695f811c5ed0 300562c0b3601f3b
    FFT full 1 LeastRecentlyUsed f9a385cf44760a8e 8943240bccae6555
    FFT full 4 FixedPriority 312c0489b31df93e 9744a7535febc5d2
    FFT full 4 RoundRobin c09c1c295dbc1b0a b534627359c9ae8d
    FFT full 4 LeastRecentlyUsed e0c14d037e68fce2 56c0293b751d6282
    FFT shared 1 FixedPriority 3d2032d3c8ef7f1d 6c18d315108339fe
    FFT shared 1 RoundRobin 84ce6e45c011f63d 29a8701a5db42da2
    FFT shared 1 LeastRecentlyUsed 39e401fac0a6e024 17ac3b4928054ad6
    FFT shared 4 FixedPriority 0f38ce38c19426f6 6c18d315108339fe
    FFT shared 4 RoundRobin d6fe1512e3b6e758 29a8701a5db42da2
    FFT shared 4 LeastRecentlyUsed e1ffdf1cc294f43f 17ac3b4928054ad6
    FFT designed 1 FixedPriority 2141eea4be8db1e3 527d8133bbbecc66
    FFT designed 1 RoundRobin 46136a2b781cf854 709d02cb480b206f
    FFT designed 1 LeastRecentlyUsed 985a730c47e79367 8f49b80672c4bbc9
    FFT designed 4 FixedPriority de233ec188450ab1 5bb0e3a382599d1e
    FFT designed 4 RoundRobin 61b150f63daa8282 a3f17c752f775f09
    FFT designed 4 LeastRecentlyUsed 51e440d249447288 eea6e883340d9610
    QSort full 1 FixedPriority ad77596bdd0a6fb7 3d320d7b9a317d87
    QSort full 1 RoundRobin fcf2c61c24ad7dd7 82ef17a7abfb32b7
    QSort full 1 LeastRecentlyUsed fcf2c61c24ad7dd7 82ef17a7abfb32b7
    QSort full 4 FixedPriority 681b45d04336aed7 453aefc64fb60077
    QSort full 4 RoundRobin f26295da67953d67 52d75450576247a3
    QSort full 4 LeastRecentlyUsed f26295da67953d67 52d75450576247a3
    QSort shared 1 FixedPriority 819ea82a29febd63 14194b3cecfb5281
    QSort shared 1 RoundRobin f929c41194cbf561 8733d82f59be8c19
    QSort shared 1 LeastRecentlyUsed 14958d34f047d2f5 6472273a9c28ce55
    QSort shared 4 FixedPriority 16f0f466f6b34f85 14194b3cecfb5281
    QSort shared 4 RoundRobin 8f1c55511efe5933 8733d82f59be8c19
    QSort shared 4 LeastRecentlyUsed cb48ee7fe738483a 6472273a9c28ce55
    QSort designed 1 FixedPriority 7aef6f48e9a7914c 97309e286d349e30
    QSort designed 1 RoundRobin 4f8174f58f58d1c3 ca59ba5949953238
    QSort designed 1 LeastRecentlyUsed 4f8174f58f58d1c3 ca59ba5949953238
    QSort designed 4 FixedPriority 4865d7e01100f6d8 dd8b2de41b73282c
    QSort designed 4 RoundRobin 4146be09b65a2591 03a2a02b98b1b828
    QSort designed 4 LeastRecentlyUsed 4146be09b65a2591 03a2a02b98b1b828
    DES full 1 FixedPriority 7b060c513de2d19c cc65901d8d56d9d2
    DES full 1 RoundRobin 7b060c513de2d19c cc65901d8d56d9d2
    DES full 1 LeastRecentlyUsed 7b060c513de2d19c cc65901d8d56d9d2
    DES full 4 FixedPriority 8c785bb891eb880a 570cb54a92c93b46
    DES full 4 RoundRobin 8c785bb891eb880a 570cb54a92c93b46
    DES full 4 LeastRecentlyUsed 8c785bb891eb880a 570cb54a92c93b46
    DES shared 1 FixedPriority aaf95e2998cb2d9b 89644b5778ce89e6
    DES shared 1 RoundRobin 1ac83693a5c87ae5 548c6d1ea68f3976
    DES shared 1 LeastRecentlyUsed 97600c05e4f7fc97 cfd5eac205e71756
    DES shared 4 FixedPriority 00951b2128a82abd 89644b5778ce89e6
    DES shared 4 RoundRobin aa9504dd8f0e5a81 548c6d1ea68f3976
    DES shared 4 LeastRecentlyUsed 8094a79d2d547243 cfd5eac205e71756
    DES designed 1 FixedPriority ea0cf402ba4a9edb 01b67b1cc64a3c78
    DES designed 1 RoundRobin ea0cf402ba4a9edb 01b67b1cc64a3c78
    DES designed 1 LeastRecentlyUsed ea0cf402ba4a9edb 01b67b1cc64a3c78
    DES designed 4 FixedPriority 46d60b436ffdc09a fa682549f0f1d570
    DES designed 4 RoundRobin 46d60b436ffdc09a fa682549f0f1d570
    DES designed 4 LeastRecentlyUsed 46d60b436ffdc09a fa682549f0f1d570
";

fn digest(report: &SimReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    word(report.packets().len() as u64);
    for p in report.packets() {
        word(p.initiator.index() as u64);
        word(p.target.index() as u64);
        word(p.scheduled);
        word(p.ready);
        word(p.grant);
        word(p.complete);
        word(u64::from(p.critical));
    }
    for bus in report.bus_stats() {
        word(bus.busy_cycles);
        word(bus.grants);
    }
    word(report.horizon());
    h
}

fn designed(assignment: &[usize]) -> CrossbarConfig {
    let buses = assignment.iter().max().map_or(1, |&k| k + 1);
    CrossbarConfig::from_assignment(assignment.to_vec(), buses).expect("valid assignment")
}

/// Every case's digest line, in a fixed order.
fn digest_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for app in workloads::paper_suite(42) {
        let (_, it_designed, ti_designed) = DESIGNED
            .iter()
            .find(|(name, _, _)| *name == app.name())
            .expect("every paper app has a designed crossbar");
        let (ni, nt) = (app.spec.num_initiators(), app.spec.num_targets());
        let configs = [
            ("full", CrossbarConfig::full(nt), CrossbarConfig::full(ni)),
            (
                "shared",
                CrossbarConfig::shared_bus(nt),
                CrossbarConfig::shared_bus(ni),
            ),
            ("designed", designed(it_designed), designed(ti_designed)),
        ];
        for (label, it, ti) in &configs {
            for depth in [1usize, 4] {
                for arbitration in [
                    Arbitration::FixedPriority,
                    Arbitration::RoundRobin,
                    Arbitration::LeastRecentlyUsed,
                ] {
                    let options = SimOptions::with_outstanding(depth);
                    let it_cfg = it.clone().with_arbitration(arbitration);
                    let ti_cfg = ti.clone().with_arbitration(arbitration);
                    let it_report = simulate_with(&app.trace, &it_cfg, &options);
                    let responses = it_report.observed_trace(ni, nt).response_trace_scaled(1.0);
                    let ti_report = simulate_with(&responses, &ti_cfg, &options);
                    lines.push(format!(
                        "{} {label} {depth} {arbitration:?} {:016x} {:016x}",
                        app.name(),
                        digest(&it_report),
                        digest(&ti_report)
                    ));
                }
            }
        }
    }
    lines
}

#[test]
fn simulator_output_matches_recorded_digests() {
    let actual = digest_lines();
    let expected: Vec<&str> = EXPECTED
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty())
        .collect();
    assert_eq!(
        actual.len(),
        90,
        "5 apps x 3 configs x 2 depths x 3 policies"
    );
    let mismatched: Vec<&String> = actual
        .iter()
        .enumerate()
        .filter(|(i, line)| expected.get(*i) != Some(&line.as_str()))
        .map(|(_, line)| line)
        .collect();
    assert!(
        mismatched.is_empty() && expected.len() == actual.len(),
        "{} of {} simulator digests changed; actual table:\n{}",
        mismatched.len(),
        actual.len(),
        actual.join("\n")
    );
}
