//! Regression tests for `dsd batch`: malformed directives must not stop
//! the valid ones (report on stderr, exit 1, valid solutions still
//! printed), and `update` directives must interleave with requests.

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
    Command::new(env!("CARGO_BIN_EXE_dsd"))
        .arg("batch")
        .arg(request_file)
        .output()
        .expect("spawn dsd batch")
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
