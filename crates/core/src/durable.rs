//! Crash-safe on-disk state, implemented once.
//!
//! Every file that must survive a crash — batch and sweep journals, the
//! serve cache index, sweep's leases, markers, counters and manifest, the
//! CLI's reports and sink files — is written here. Callers own only their
//! header and record formats; this module owns the rest:
//!
//! * a line log is one header line, then one `\n`-terminated record per
//!   line; [`read_log`] drops a torn last line and skips (and counts) a
//!   complete line the caller cannot parse;
//! * [`Appender::open`] heals before appending: it cuts the file back to
//!   its intact prefix, and every append is `fdatasync`ed;
//! * [`replace`] writes a temp file, fsyncs, renames, and fsyncs the
//!   parent directory, removing the temp file on any error;
//! * [`create_new`] (`O_EXCL`) and [`remove`] (idempotent) fsync the
//!   parent directory too.
//!
//! So a crash at any instant leaves a replaced file old or new, never
//! mixed, and a line log an intact prefix plus at most one torn line.

use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// What [`read_log`] recovered from a line log.
pub struct Recovered<R> {
    /// The header line without its `\n`; `None` when the file is empty,
    /// its first line is torn, or that line is not UTF-8.
    pub header: Option<String>,
    /// Every complete record line the parser accepted, in file order.
    pub records: Vec<R>,
    /// Complete record lines the parser rejected (or that were not UTF-8).
    pub skipped: usize,
    /// Whether a torn last line was dropped.
    pub torn: bool,
    /// Length in bytes of the header plus every complete line: where the
    /// next append must start ([`Appender::open`]).
    pub intact: u64,
}

/// Reads the line log at `path` under the one recovery rule: a torn last
/// line is dropped; a complete line `parse` rejects is skipped, counted,
/// and read past. The file itself is not modified.
pub fn read_log<R>(path: &Path, parse: impl FnMut(&str) -> Option<R>) -> io::Result<Recovered<R>> {
    Ok(recover(&std::fs::read(path)?, parse))
}

fn recover<R>(bytes: &[u8], mut parse: impl FnMut(&str) -> Option<R>) -> Recovered<R> {
    let mut out = Recovered {
        header: None,
        records: Vec::new(),
        skipped: 0,
        torn: false,
        intact: 0,
    };
    for (i, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        let Some(body) = line.strip_suffix(b"\n") else {
            out.torn = true;
            break;
        };
        out.intact += line.len() as u64;
        let text = std::str::from_utf8(body).ok();
        if i == 0 {
            out.header = text.map(str::to_string);
        } else if let Some(rec) = text.and_then(&mut parse) {
            out.records.push(rec);
        } else {
            out.skipped += 1;
        }
    }
    out
}

/// An open line log that records are appended to.
#[derive(Debug)]
pub struct Appender {
    file: File,
}

impl Appender {
    /// Opens the line log at `path` for appending after truncating it to
    /// `intact` bytes — the [`Recovered::intact`] of its last read — so a
    /// torn tail is cut off before the next record lands.
    pub fn open(path: &Path, intact: u64) -> io::Result<Appender> {
        let file = OpenOptions::new().append(true).open(path)?;
        file.set_len(intact)?;
        Ok(Appender { file })
    }

    /// Appends one record line with a single write, then `fdatasync`s.
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        let mut framed = String::with_capacity(line.len() + 1);
        frame(&mut framed, line)?;
        self.file.write_all(framed.as_bytes())?;
        self.file.sync_data()
    }
}

/// Pushes `line` and its terminating `\n` onto `text`. A line holding a
/// `\n` of its own would read back as two, so it is refused with
/// `InvalidInput`.
fn frame(text: &mut String, line: &str) -> io::Result<()> {
    if line.contains('\n') {
        return Err(io::ErrorKind::InvalidInput.into());
    }
    text.push_str(line);
    text.push('\n');
    Ok(())
}

/// Writes a whole line log — `header`, then one line per record — through
/// [`replace`], and opens it for appending. After a crash the file is
/// absent, its previous version, or exactly these lines: never a partial
/// header.
pub fn write_log<S: AsRef<str>>(
    path: &Path,
    header: &str,
    records: impl IntoIterator<Item = S>,
) -> io::Result<Appender> {
    let mut text = String::new();
    frame(&mut text, header)?;
    for line in records {
        frame(&mut text, line.as_ref())?;
    }
    replace(path, &text)?;
    Appender::open(path, text.len() as u64)
}

/// Distinguishes the temp files of concurrent [`replace`] calls within
/// one process (the pid in the name separates processes).
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Replaces `path` with `contents` atomically: the bytes go to a temp
/// file in the same directory, are fsynced, and the temp file is renamed
/// over `path`; then the parent directory is fsynced so the new name
/// survives a crash too. On any error the temp file is removed and `path`
/// is left as it was.
pub fn replace(path: &Path, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let name = path.file_name().ok_or(io::ErrorKind::InvalidInput)?;
    let tmp = parent(path).join(format!(
        ".{}.tmp-{}-{}",
        name.to_string_lossy(),
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(contents.as_ref())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        sync_parent(path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Creates `path` exclusively (`O_EXCL`) holding `contents`, fsyncs it
/// and its parent directory, and returns `true`. Returns `false` without
/// touching anything when `path` already exists — the filesystem decides
/// which of several racing creators wins.
pub fn create_new(path: &Path, contents: impl AsRef<[u8]>) -> io::Result<bool> {
    let mut file = match OpenOptions::new().write(true).create_new(true).open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => return Ok(false),
        Err(e) => return Err(e),
    };
    file.write_all(contents.as_ref())?;
    file.sync_all()?;
    sync_parent(path)?;
    Ok(true)
}

/// Removes `path` and fsyncs its parent directory so the removal survives
/// a crash. A missing file is already removed: `Ok`, nothing synced.
pub fn remove(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => sync_parent(path),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Creates `dir` and any missing ancestors, then fsyncs its parent so the
/// new directory entry survives a crash.
pub fn create_dir_all(dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    sync_parent(dir)
}

/// The directory holding `path`'s entry (`.` for a bare file name).
fn parent(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Fsyncs the directory holding `path`, making a create, rename, or
/// remove of `path` durable (a file's own fsync covers only its bytes).
fn sync_parent(path: &Path) -> io::Result<()> {
    File::open(parent(path))?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gcatch-durable-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        create_dir_all(&dir).unwrap();
        dir
    }

    /// Records are lines starting with `r`; anything else is corrupt.
    fn parse(line: &str) -> Option<String> {
        line.starts_with('r').then(|| line.to_string())
    }

    #[test]
    fn recovery_and_heal_hold_at_every_byte_offset() {
        let dir = scratch("offsets");
        let path = dir.join("log");
        let lines = ["head", "r0", "corrupt", "r1 \u{e9}\u{1F600}", "r2"];
        let full: String = lines.iter().map(|l| format!("{l}\n")).collect();
        // Byte offset just past each line's `\n`.
        let ends: Vec<usize> = lines
            .iter()
            .scan(0, |at, l| {
                *at += l.len() + 1;
                Some(*at)
            })
            .collect();
        for cut in 0..=full.len() {
            let prefix = &full.as_bytes()[..cut];
            let complete = ends.iter().filter(|&&e| e <= cut).count();
            let got = recover(prefix, parse);
            let want: Vec<String> = lines[1..complete.max(1)]
                .iter()
                .filter(|l| l.starts_with('r'))
                .map(|l| l.to_string())
                .collect();
            assert_eq!(
                got.header.as_deref(),
                (complete > 0).then_some("head"),
                "cut {cut}"
            );
            assert_eq!(got.records, want, "cut {cut}");
            assert_eq!(got.skipped, usize::from(complete > 2), "cut {cut}");
            let intact = if complete == 0 { 0 } else { ends[complete - 1] };
            assert_eq!(got.intact, intact as u64, "cut {cut}");
            assert_eq!(got.torn, cut != intact, "cut {cut}");

            // Heal before append: the appended record is read back after
            // every survivor, never glued onto a torn line.
            std::fs::write(&path, prefix).unwrap();
            let read = read_log(&path, parse).unwrap();
            assert_eq!(read.records, want, "cut {cut}");
            Appender::open(&path, read.intact)
                .unwrap()
                .append("r9")
                .unwrap();
            let healed = read_log(&path, parse).unwrap();
            assert!(!healed.torn, "cut {cut}");
            if complete > 0 {
                let mut with_new = want.clone();
                with_new.push("r9".to_string());
                assert_eq!(healed.records, with_new, "cut {cut}");
            } else {
                // No intact header: the appended line becomes the header.
                assert_eq!(healed.header.as_deref(), Some("r9"), "cut {cut}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_replace_removes_its_temp_file_and_leaves_the_target() {
        let dir = scratch("rename-fails");
        // A non-empty directory where the file should go: the rename
        // cannot replace it.
        let target = dir.join("report.json");
        std::fs::create_dir(&target).unwrap();
        std::fs::write(target.join("keep"), "kept\n").unwrap();
        assert!(replace(&target, "new contents\n").is_err());
        assert!(target.is_dir());
        assert_eq!(
            std::fs::read_to_string(target.join("keep")).unwrap(),
            "kept\n"
        );
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replace_create_new_and_remove_work_on_plain_paths() {
        let dir = scratch("plain");
        let path = dir.join("blob");
        replace(&path, "hello\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello\n");
        replace(&path, "replaced\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "replaced\n");

        let claim = dir.join("claim");
        assert!(create_new(&claim, "first\n").unwrap());
        assert!(!create_new(&claim, "second\n").unwrap(), "O_EXCL lost");
        assert_eq!(std::fs::read_to_string(&claim).unwrap(), "first\n");
        remove(&claim).unwrap();
        remove(&claim).unwrap();
        assert!(!claim.exists());

        let mut log = write_log(&dir.join("log"), "head", ["r0", "r1"]).unwrap();
        log.append("r2").unwrap();
        assert!(log.append("r3\nr4").is_err(), "one record, one line");
        let read = read_log(&dir.join("log"), parse).unwrap();
        assert_eq!(read.header.as_deref(), Some("head"));
        assert_eq!(read.records, ["r0", "r1", "r2"]);
        assert!(replace(Path::new("/"), "x").is_err(), "no file name");
        std::fs::remove_dir_all(&dir).ok();
    }
}
