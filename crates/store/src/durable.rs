//! Durable whole-file replacement, shared by every artifact writer.
//!
//! A replaced file goes through the same four steps everywhere: write a
//! `.tmp` sibling, fsync it, rename it over the target, then fsync the
//! directory so the rename itself survives a crash. Without the first fsync
//! a crash after the rename can leave an empty or torn file under the final
//! name; without the last one the rename can be lost and the old file come
//! back.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The `.tmp` sibling a replacement of `path` is staged in.
pub(crate) fn tmp_sibling(path: &Path) -> PathBuf {
    let mut tmp = path.to_path_buf().into_os_string();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Fsyncs the directory holding `path`, making a rename into it durable.
///
/// A no-op off Unix, where directories cannot be opened for syncing.
///
/// # Errors
///
/// Returns the I/O error from opening or syncing the directory.
pub(crate) fn sync_parent_dir(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Replaces `path` with `bytes` durably: a reader sees either the old file
/// or the complete new one, also after a crash.
///
/// # Errors
///
/// Returns the first I/O error. The `.tmp` sibling is removed on failure and
/// `path` is left as it was unless the rename already happened.
pub fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    let staged = File::create(&tmp).and_then(|mut file| {
        file.write_all(bytes)?;
        file.sync_all()
    });
    if let Err(e) = staged.and_then(|()| fs::rename(&tmp, path)) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    sync_parent_dir(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pfdurable-{tag}-{}", std::process::id()))
    }

    #[test]
    fn replace_writes_new_contents_and_leaves_no_tmp() {
        let path = scratch("replace");
        fs::write(&path, b"old").unwrap();
        replace_file(&path, b"new contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new contents");
        assert!(!tmp_sibling(&path).exists());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_replace_keeps_the_old_file() {
        let path = scratch("blocked");
        fs::write(&path, b"old").unwrap();
        // A directory where the tmp file must go makes staging fail.
        fs::create_dir_all(tmp_sibling(&path)).unwrap();
        assert!(replace_file(&path, b"new").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"old");
        fs::remove_dir(tmp_sibling(&path)).unwrap();
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_bare_file_name_syncs_the_current_directory() {
        sync_parent_dir(Path::new("no-such-file-needed")).unwrap();
    }
}
