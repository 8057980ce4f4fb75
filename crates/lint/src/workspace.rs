//! Workspace discovery and file walking.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{scan_str, FileScan};

/// Directories never scanned: build output, the vendored dependency stubs
/// (`vendor/loom` *must* reference `std::sync::atomic` — it is the shim the
/// facade interposes), and VCS metadata.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "node_modules"];

/// Finds the workspace root by walking up from `start` to the first
/// directory holding both `Cargo.toml` and `MEMORY_ORDERING.md`.
#[must_use]
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("MEMORY_ORDERING.md").is_file() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// True when the path is test-exempt by location: integration tests,
/// examples and benches are scaffolding, not protocol code.
fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|part| part == "tests" || part == "examples" || part == "benches")
}

/// Scans every `.rs` file under `root` (excluding `SKIP_DIRS`), returning
/// scans sorted by relative path.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<FileScan>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    let mut scans = Vec::with_capacity(files.len());
    for path in files {
        let content = fs::read_to_string(root.join(&path))?;
        let test_path = is_test_path(&path);
        scans.push(scan_str(&path, &content, test_path));
    }
    Ok(scans)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walk stays under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_paths_are_recognized() {
        assert!(is_test_path("tests/conformance.rs"));
        assert!(is_test_path("crates/core/tests/loom.rs"));
        assert!(is_test_path("examples/quickstart.rs"));
        assert!(!is_test_path("crates/core/src/wait.rs"));
    }

    #[test]
    fn find_root_from_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root above crates/lint");
        assert!(root.join("MEMORY_ORDERING.md").is_file());
        assert!(root.join("crates/lint").is_dir());
    }
}
