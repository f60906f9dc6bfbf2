//! Integration tests: the paper's headline qualitative results must hold
//! on the synthetic application suite (at `Scale::Small` for speed).
//!
//! These are *shape* assertions — who wins, roughly by how much, and which
//! combinations interact — mirroring the claims of the paper's Sections
//! 5.1-5.3 and the design-choice claims it relies on (the ablations at the
//! end). `EXPERIMENTS.md` records the full-scale numbers.

use dirext_sim::core::{
    CompetitiveConfig, Consistency, PrefetchConfig, ProtocolConfig, ProtocolKind,
};
use dirext_sim::stats::Metrics;
use dirext_sim::trace::Workload;
use dirext_sim::{Machine, MachineConfig};
use dirext_workloads::{App, Scale};

fn run(app: App, kind: ProtocolKind, c: Consistency) -> Metrics {
    run_on(&app.workload(16, Scale::Small), kind, c)
}

/// Runs `w` under `kind` on the default machine (uniform network, paper
/// timing, full-map directory).
fn run_on(w: &Workload, kind: ProtocolKind, c: Consistency) -> Metrics {
    Machine::new(MachineConfig::new(w.procs(), kind.config(c)))
        .run(w)
        .unwrap_or_else(|e| panic!("{} {kind} {c:?}: {e}", w.name()))
}

/// [`run`] under a protocol configuration that no [`ProtocolKind`] names.
fn run_cfg(app: App, cfg: MachineConfig) -> Metrics {
    let w = app.workload(16, Scale::Small);
    Machine::new(cfg)
        .run(&w)
        .unwrap_or_else(|e| panic!("{app}: {e}"))
}

fn rel(app: App, kind: ProtocolKind) -> f64 {
    let base = run(app, ProtocolKind::Basic, Consistency::Rc);
    run(app, kind, Consistency::Rc).relative_time(&base)
}

// ----------------------------------------------------------- Section 5.1

#[test]
fn prefetching_helps_the_direct_solvers_most() {
    // "The cold miss rate remains high during the whole execution [of LU
    // and Cholesky]" — P's best cases.
    assert!(
        rel(App::Lu, ProtocolKind::P) < 0.85,
        "LU: {}",
        rel(App::Lu, ProtocolKind::P)
    );
    assert!(
        rel(App::Cholesky, ProtocolKind::P) < 0.9,
        "Cholesky: {}",
        rel(App::Cholesky, ProtocolKind::P)
    );
}

#[test]
fn prefetching_does_not_help_ocean() {
    // "The read stall time in P is reduced ... for all applications except
    // Ocean": Ocean's misses are strided boundary-coherence misses.
    assert!(
        rel(App::Ocean, ProtocolKind::P) > 0.85,
        "{}",
        rel(App::Ocean, ProtocolKind::P)
    );
}

#[test]
fn competitive_update_cuts_coherence_misses() {
    for app in [App::Water, App::Ocean] {
        let base = run(app, ProtocolKind::Basic, Consistency::Rc);
        let cw = run(app, ProtocolKind::Cw, Consistency::Rc);
        assert!(
            (cw.coh_misses as f64) < 0.6 * base.coh_misses as f64,
            "{app}: {} vs {}",
            cw.coh_misses,
            base.coh_misses
        );
        // And the cold misses are untouched (Table 2's independence).
        let ratio = cw.cold_misses as f64 / base.cold_misses as f64;
        assert!((0.9..=1.1).contains(&ratio), "{app}: cold ratio {ratio}");
    }
}

#[test]
fn pcw_gains_are_additive() {
    // "The cold miss rates for P and P+CW are the same and the coherence
    // miss rates of CW and P+CW are also the same."
    for app in App::ALL {
        let p = run(app, ProtocolKind::P, Consistency::Rc);
        let cw = run(app, ProtocolKind::Cw, Consistency::Rc);
        let pcw = run(app, ProtocolKind::PCw, Consistency::Rc);
        if matches!(app, App::Lu | App::Ocean) {
            // LU and Ocean deviate in our reproduction: under P alone the
            // writers invalidate other processors' prefetched copies before
            // first use (counted cold, since a never-referenced prefetch is
            // not an access), while under P+CW those copies survive as
            // updates — so cold(P+CW) < cold(P). Assert the directional
            // property only.
            assert!(
                pcw.cold_rate_pct() <= p.cold_rate_pct() + 0.5,
                "{app}: cold(P+CW) {} vs cold(P) {}",
                pcw.cold_rate_pct(),
                p.cold_rate_pct()
            );
            continue;
        }
        let cold_gap = (pcw.cold_rate_pct() - p.cold_rate_pct()).abs();
        assert!(
            cold_gap < 1.5,
            "{app}: cold(P+CW) {} vs cold(P) {}",
            pcw.cold_rate_pct(),
            p.cold_rate_pct()
        );
        // Coherence: P+CW never has *more* coherence misses than CW alone
        // (prefetching can even refetch expired copies early, so it may
        // have slightly fewer).
        assert!(
            pcw.coh_rate_pct() <= cw.coh_rate_pct() + 1.5,
            "{app}: coh(P+CW) {} vs coh(CW) {}",
            pcw.coh_rate_pct(),
            cw.coh_rate_pct()
        );
    }
}

#[test]
fn pcw_is_the_best_rc_combination_for_mp3d_and_cholesky() {
    for app in [App::Mp3d, App::Cholesky] {
        let pcw = rel(app, ProtocolKind::PCw);
        assert!(pcw < 0.8, "{app}: P+CW must be a large win, got {pcw}");
        assert!(pcw < rel(app, ProtocolKind::P), "{app}: P+CW must beat P");
        assert!(pcw < rel(app, ProtocolKind::Cw), "{app}: P+CW must beat CW");
    }
}

#[test]
fn cwm_wipes_out_cw_gains_for_migratory_applications() {
    // "The gains of CW are wiped out for all applications exhibiting a
    // significant degree of migratory sharing."
    for app in [App::Mp3d, App::Cholesky] {
        let cw = rel(app, ProtocolKind::Cw);
        let cwm = rel(app, ProtocolKind::CwM);
        assert!(
            cwm > cw + 0.03,
            "{app}: CW+M ({cwm:.2}) must lose most of CW's gain ({cw:.2})"
        );
    }
    // Water's wipe-out is milder at the test scale: CW+M must at least
    // never beat CW.
    let cw = rel(App::Water, ProtocolKind::Cw);
    let cwm = rel(App::Water, ProtocolKind::CwM);
    assert!(cwm >= cw - 0.02, "Water: CW+M ({cwm:.2}) vs CW ({cw:.2})");
}

#[test]
fn migratory_alone_does_little_under_rc() {
    // "There is no write penalty under release consistency", so M's direct
    // effect is limited.
    for app in [App::Lu, App::Ocean, App::Water] {
        let m = rel(app, ProtocolKind::M);
        assert!(m > 0.9, "{app}: M under RC should be near-neutral, got {m}");
    }
}

#[test]
fn pm_equals_p_when_there_is_no_migratory_sharing() {
    let p = rel(App::Lu, ProtocolKind::P);
    let pm = rel(App::Lu, ProtocolKind::PM);
    assert!((p - pm).abs() < 0.05, "LU: P {p} vs P+M {pm}");
}

#[test]
fn hardware_prefetching_matches_software_annotations() {
    // Related work (§6): the hardware scheme is "radically different from
    // Mowry and Gupta's software-based prefetching" yet achieves comparable
    // gains without code changes. Run the annotated LU under BASIC and the
    // plain LU under P.
    let plain = dirext_workloads::lu(16, Scale::Small);
    let swpf = dirext_workloads::lu_software_prefetch(16, Scale::Small);
    let base = run_on(&plain, ProtocolKind::Basic, Consistency::Rc);
    let hw = run_on(&plain, ProtocolKind::P, Consistency::Rc);
    let sw = run_on(&swpf, ProtocolKind::Basic, Consistency::Rc);
    let hw_rel = hw.relative_time(&base);
    let sw_rel = sw.relative_time(&base);
    assert!(sw_rel < 0.85, "software prefetching must help: {sw_rel}");
    assert!(
        (hw_rel - sw_rel).abs() < 0.15,
        "hardware ({hw_rel:.2}) and software ({sw_rel:.2}) prefetching must be comparable"
    );
}

// ----------------------------------------------------------- Section 5.2

#[test]
fn migratory_cuts_the_write_penalty_under_sc() {
    // M-SC is "very effective in the cases of MP3D, Cholesky, and Water".
    let base = run(App::Mp3d, ProtocolKind::Basic, Consistency::Sc);
    let m = run(App::Mp3d, ProtocolKind::M, Consistency::Sc);
    assert!(
        (m.stalls.write as f64) < 0.5 * base.stalls.write as f64,
        "write stall {} vs {}",
        m.stalls.write,
        base.stalls.write
    );
    assert!(
        m.relative_time(&base) < 0.8,
        "exec {}",
        m.relative_time(&base)
    );
}

#[test]
fn pm_under_sc_combines_read_and_write_gains() {
    // "The read stall times of P and P+M are almost the same, as are the
    // write and the acquire stall times of M-SC and P+M."
    let p = run(App::Mp3d, ProtocolKind::P, Consistency::Sc);
    let m = run(App::Mp3d, ProtocolKind::M, Consistency::Sc);
    let pm = run(App::Mp3d, ProtocolKind::PM, Consistency::Sc);
    let read_ratio = pm.stalls.read as f64 / p.stalls.read as f64;
    let write_ratio = pm.stalls.write as f64 / m.stalls.write.max(1) as f64;
    assert!((0.7..=1.3).contains(&read_ratio), "read ratio {read_ratio}");
    // "The write stall time is either the same or is slightly increased ...
    // a side effect of prefetching, which increases the number of cached
    // copies and consequently causes the propagation of more
    // invalidations."
    assert!(
        (0.5..=2.0).contains(&write_ratio),
        "write ratio {write_ratio}"
    );
    let base = run(App::Mp3d, ProtocolKind::Basic, Consistency::Sc);
    assert!(pm.relative_time(&base) < 0.8);
}

#[test]
fn sc_shows_write_stall_and_rc_hides_it() {
    for app in App::ALL {
        let sc = run(app, ProtocolKind::Basic, Consistency::Sc);
        let rc = run(app, ProtocolKind::Basic, Consistency::Rc);
        assert!(sc.stalls.write > 0, "{app}: SC must stall on writes");
        assert_eq!(rc.stalls.write, 0, "{app}: RC must hide the write latency");
        assert!(sc.exec_cycles > rc.exec_cycles, "{app}: SC must be slower");
    }
}

// ----------------------------------------------------------- Section 5.3

#[test]
fn pcw_generates_more_traffic_than_basic_pm_less_than_pcw() {
    for app in [App::Mp3d, App::Cholesky] {
        let base = run(app, ProtocolKind::Basic, Consistency::Rc);
        let pcw = run(app, ProtocolKind::PCw, Consistency::Rc);
        let pm = run(app, ProtocolKind::PM, Consistency::Rc);
        assert!(
            pcw.relative_traffic(&base) > 1.05,
            "{app}: P+CW traffic {}",
            pcw.relative_traffic(&base)
        );
        assert!(
            pm.relative_traffic(&base) < pcw.relative_traffic(&base),
            "{app}: P+M must generate less traffic than P+CW"
        );
    }
}

#[test]
fn migratory_optimization_reduces_traffic() {
    // "The migratory optimization cuts the write traffic."
    for app in [App::Mp3d, App::Water] {
        let base = run(app, ProtocolKind::Basic, Consistency::Rc);
        let m = run(app, ProtocolKind::M, Consistency::Rc);
        assert!(
            m.relative_traffic(&base) < 1.0,
            "{app}: M traffic {}",
            m.relative_traffic(&base)
        );
    }
}

#[test]
fn narrow_links_erode_pcw_more_than_pm() {
    use dirext_sim::NetworkKind;
    let w = App::Mp3d.workload(16, Scale::Small);
    let ratio = |kind: ProtocolKind, bits: u32| {
        let run = |kind: ProtocolKind| {
            let cfg = MachineConfig::new(16, kind.config(Consistency::Rc))
                .with_network(NetworkKind::Mesh { link_bits: bits });
            Machine::new(cfg).run(&w).unwrap()
        };
        run(kind).relative_time(&run(ProtocolKind::Basic))
    };
    let pcw_degrade = ratio(ProtocolKind::PCw, 16) - ratio(ProtocolKind::PCw, 64);
    let pm_degrade = ratio(ProtocolKind::PM, 16) - ratio(ProtocolKind::PM, 64);
    assert!(
        pcw_degrade > pm_degrade,
        "P+CW must be more contention-sensitive: {pcw_degrade:.3} vs {pm_degrade:.3}"
    );
}

// ------------------------------------------------- Design-choice ablations
//
// Each varies one `ProtocolConfig` field that the eight protocols fix.
// Figures in the comments are Small-scale pclocks unless stated.

#[test]
fn adaptive_prefetch_degree_beats_fixed_degrees() {
    // The ICPP'93 result the paper builds on: "the need to adjust the
    // degree of prefetching dynamically ... was demonstrated". On MP3D the
    // fixed degree of one stays slightly ahead (57,196 against adaptive
    // 57,899); on LU adaptive beats every fixed degree (63,093 against
    // 73,503 / 64,318 / 67,118 at K1 / K4 / K16).
    let exec = |app: App, adaptive: bool, initial_k: u32| {
        let prefetch = PrefetchConfig {
            initial_k,
            adaptive,
        };
        let protocol = ProtocolConfig {
            prefetch: Some(prefetch),
            ..ProtocolConfig::basic(Consistency::Rc)
        };
        run_cfg(app, MachineConfig::paper_default(protocol)).exec_cycles
    };
    for app in [App::Lu, App::Mp3d] {
        let adaptive = exec(app, true, 1);
        let [k1, k4, k16] = [1, 4, 16].map(|k| exec(app, false, k));
        let fixed = format!("{app}: adaptive {adaptive}, fixed K1/K4/K16 {k1}/{k4}/{k16}");
        assert!(adaptive < k4 && adaptive < k16, "{fixed}");
        if app == App::Lu {
            assert!(adaptive < k1, "{fixed}");
        } else {
            assert!(k1 <= adaptive, "{fixed}");
        }
    }
}

#[test]
fn write_caches_with_threshold_one_beat_threshold_four_without() {
    // §3.3: "a competitive update protocol with write caches and a
    // threshold of one will in general exhibit less network traffic ...
    // than a competitive-update protocol using a threshold of four and no
    // write caches". Water also runs faster (26,481 against 32,526); Ocean
    // runs slower (68,910 against 57,924), so only its traffic is asserted.
    let cw = |app: App, threshold: u8, write_cache: bool| {
        let protocol = ProtocolConfig {
            competitive: Some(CompetitiveConfig {
                threshold,
                write_cache,
            }),
            ..ProtocolConfig::basic(Consistency::Rc)
        };
        run_cfg(app, MachineConfig::paper_default(protocol))
    };
    for app in [App::Water, App::Ocean] {
        let t1 = cw(app, 1, true);
        let t4 = cw(app, 4, false);
        assert!(
            t1.net_bytes < t4.net_bytes,
            "{app}: net bytes {} vs {}",
            t1.net_bytes,
            t4.net_bytes
        );
        if app == App::Water {
            assert!(
                t1.exec_cycles < t4.exec_cycles,
                "{app}: exec {} vs {}",
                t1.exec_cycles,
                t4.exec_cycles
            );
        }
    }
}

#[test]
fn migratory_reversion_never_slows_a_run() {
    // M's self-correcting reversion: a block stops being treated as
    // migratory when its sharing pattern changes (MP3D 52,537 with 38
    // reverts against 52,947; Ocean 136,421 with 258 against 138,870).
    for app in [App::Mp3d, App::Ocean] {
        let m = |migratory_revert: bool| {
            let protocol = ProtocolConfig {
                migratory: true,
                migratory_revert,
                ..ProtocolConfig::basic(Consistency::Rc)
            };
            run_cfg(app, MachineConfig::paper_default(protocol))
        };
        let (on, off) = (m(true), m(false));
        assert!(
            on.exec_cycles <= off.exec_cycles,
            "{app}: exec {} with reversion vs {} without",
            on.exec_cycles,
            off.exec_cycles
        );
        assert!(
            on.migratory_reverts > 0 && off.migratory_reverts == 0,
            "{app}: reverts {} with reversion, {} without",
            on.migratory_reverts,
            off.migratory_reverts
        );
    }
}

#[test]
fn exclusive_clean_captures_little_of_the_migratory_gain_under_sc() {
    // How much of M's write-stall cut does a plain MESI exclusive-clean
    // state capture? E only helps a block nobody else holds; M also helps
    // once the previous writer is done with it. SC write stall: MP3D
    // 569,122 (BASIC), 473,769 (E), 253,487 (M); Water 165,987, 166,000,
    // 93,976.
    let write_stall = |app: App, protocol: ProtocolConfig| {
        run_cfg(app, MachineConfig::paper_default(protocol))
            .stalls
            .write
    };
    let stalls = |app: App| {
        let basic = ProtocolConfig::basic(Consistency::Sc);
        let e = ProtocolConfig {
            exclusive_clean: true,
            ..basic.clone()
        };
        let m = ProtocolConfig {
            migratory: true,
            ..basic.clone()
        };
        [basic, e, m].map(|p| write_stall(app, p))
    };
    let [basic, e, m] = stalls(App::Mp3d);
    assert!(m < e && e < basic, "MP3D: BASIC {basic}, E {e}, M {m}");
    let [basic, e, m] = stalls(App::Water);
    assert!(
        (e as f64 - basic as f64).abs() < 0.01 * basic as f64,
        "Water: E {e} vs BASIC {basic}"
    );
    assert!((m as f64) < 0.7 * e as f64, "Water: M {m} vs E {e}");
}
