//! End-to-end tests of the `kpj-cli` binary: the full offline→online
//! pipeline through actual process invocations and files on disk.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kpj-cli"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kpj-cli-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_pipeline_generate_pois_landmarks_query_info() {
    let dir = tmpdir("pipeline");
    let graph = dir.join("g.kpj");
    let cats = dir.join("g.cats");
    let lm_graph = dir.join("g-lm.kpj");

    let out = cli()
        .args(["generate", "--dataset", "SJ", "--scale", "0.05", "--out"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("913 nodes"));

    let out = cli()
        .args(["pois", "--kind", "nested", "--graph"])
        .arg(&graph)
        .arg("--out")
        .arg(&cats)
        .output()
        .unwrap();
    assert!(out.status.success());

    // The offline landmark phase: a second v2 file with 4 embedded
    // landmark tables.
    let out = cli()
        .args(["convert", "--landmarks", "4", "--graph"])
        .arg(&graph)
        .arg("--out")
        .arg(&lm_graph)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("4 landmarks"));

    // Query by category, with the embedded landmarks, explicit algorithm.
    let out = cli()
        .args(["query", "--source", "17", "--category", "T2", "--k", "5"])
        .args(["--algorithm", "iterboundi"])
        .arg("--graph")
        .arg(&lm_graph)
        .arg("--categories")
        .arg(&cats)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 5, "expected 5 paths:\n{stdout}");
    assert!(lines[0].starts_with("P1 len="));

    // The same query on the landmark-free generated file must print
    // identical lengths.
    let out2 = cli()
        .args(["query", "--source", "17", "--category", "T2", "--k", "5"])
        .args(["--algorithm", "da"])
        .arg("--graph")
        .arg(&graph)
        .arg("--categories")
        .arg(&cats)
        .output()
        .unwrap();
    assert!(out2.status.success());
    let lens = |s: &str| -> Vec<String> {
        s.lines()
            .filter_map(|l| l.split_whitespace().nth(1).map(String::from))
            .collect()
    };
    assert_eq!(lens(&stdout), lens(&String::from_utf8_lossy(&out2.stdout)));

    // info: generate writes v2; the converted file carries the tables.
    let out = cli()
        .arg("info")
        .arg("--graph")
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("format: v2"), "{stdout}");
    assert!(!stdout.contains("embedded landmarks"), "{stdout}");
    assert!(stdout.contains("nodes: 913"), "{stdout}");
    let out = cli()
        .arg("info")
        .arg("--graph")
        .arg(&lm_graph)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("embedded landmarks"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_with_explicit_targets_and_gkpj_sources() {
    let dir = tmpdir("targets");
    let graph = dir.join("g.kpj");
    let out = cli()
        .args([
            "generate", "--nodes", "200", "--arcs", "700", "--seed", "5", "--out",
        ])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = cli()
        .args([
            "query",
            "--sources",
            "0,5",
            "--targets",
            "100,150,199",
            "--k",
            "3",
        ])
        .arg("--graph")
        .arg(&graph)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 3);
    let default_stdout = String::from_utf8_lossy(&out.stdout).to_string();

    // The sidetrack engine is selectable by name and agrees on lengths.
    let out = cli()
        .args([
            "query",
            "--sources",
            "0,5",
            "--targets",
            "100,150,199",
            "--k",
            "3",
            "--algorithm",
            "sidetrack",
            "--stats",
        ])
        .arg("--graph")
        .arg(&graph)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lens = |s: &str| -> Vec<String> {
        s.lines()
            .filter_map(|l| l.split_whitespace().nth(1).map(String::from))
            .collect()
    };
    let sidetrack_stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(lens(&sidetrack_stdout), lens(&default_stdout));
    // --stats prints the QueryStats debug dump, sidetrack counters included.
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("sidetracks_scanned"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_errors() {
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = cli()
        .args(["query", "--graph", "/nonexistent/file.kpj"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let dir = tmpdir("errors");
    let graph = dir.join("g.kpj");
    cli()
        .args(["generate", "--nodes", "10", "--arcs", "30", "--out"])
        .arg(&graph)
        .output()
        .unwrap();
    // Missing source spec.
    let out = cli()
        .args(["query", "--targets", "3"])
        .arg("--graph")
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--source"));
    // Bad algorithm name.
    let out = cli()
        .args([
            "query",
            "--source",
            "0",
            "--targets",
            "3",
            "--algorithm",
            "astar",
        ])
        .arg("--graph")
        .arg(&graph)
        .output()
        .unwrap();
    assert!(!out.status.success());
    // The structured error lists every valid algorithm name.
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    for name in [
        "da",
        "da-spt",
        "da-pascoal",
        "bestfirst",
        "iterbound",
        "iterboundp",
        "iterboundi",
        "sidetrack",
    ] {
        assert!(stderr.contains(name), "missing `{name}` in: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_options_are_rejected() {
    let dir = tmpdir("options");
    let graph = dir.join("g.kpj");
    let converted = dir.join("g2.kpj");
    let out = cli()
        .args(["generate", "--nodes", "60", "--arcs", "200", "--out"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());

    // `--threads` is not a convert option, a misspelt `--landmarks` must
    // not fall back to a file without tables, and `--to-v2` (convert
    // always writes v2) fails by name wherever it stands.
    let cases: [&[&str]; 4] = [
        &["--threads", "2"],
        &["--landmraks", "8"],
        &["--to-v2", "--reorder"],
        &["--to-v2"],
    ];
    for extra in cases {
        let out = cli()
            .args(["convert", "--graph"])
            .arg(&graph)
            .arg("--out")
            .arg(&converted)
            .args(extra)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{extra:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {} for convert", extra[0])),
            "{stderr}"
        );
        assert!(!converted.exists(), "{extra:?}: the command ran anyway");
    }

    // `landmarks` is not a command: `convert --landmarks N` embeds the
    // tables in a v2 file.
    let out = cli()
        .args(["landmarks", "--count", "4", "--graph"])
        .arg(&graph)
        .arg("--out")
        .arg(dir.join("g.lm"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown command `landmarks`"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Options are checked per command: `--reorder` belongs to convert,
    // not to query; query reads landmarks only from the v2 file, so it
    // takes no `--landmarks`; and `-k` is the key `k`.
    for bad in [["--reorder", "--stats"], ["--landmarks", "g.lm"]] {
        let out = cli()
            .args(["query", "--source", "0", "--targets", "3"])
            .args(bad)
            .arg("--graph")
            .arg(&graph)
            .output()
            .unwrap();
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {} for query", bad[0])),
            "{stderr}"
        );
    }
    let out = cli()
        .args(["query", "--source", "0", "--targets", "3", "-k", "2"])
        .arg("--graph")
        .arg(&graph)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
