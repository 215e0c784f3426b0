//! Where the stream trainer's events come from.
//!
//! [`EventSource`] abstracts "a possibly-unbounded, possibly-still-growing
//! sequence of consumption events" behind a non-blocking poll, so the
//! trainer's loop is the same whether it tails a JSONL file another
//! process is appending to ([`FileFollowSource`]) or drains an in-process
//! channel fed by a live workload ([`ChannelSource`]).

use crossbeam::channel::{self, Receiver, Sender, TryRecvError};
use rrc_obs::Json;
use rrc_sequence::{ItemId, UserId};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// One consumption event on the wire: user `u` consumed item `v`. Event
/// *time* is implicit — the trainer derives each user's clock from their
/// own window, exactly as the paper's sequential model does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEvent {
    /// The consuming user.
    pub user: UserId,
    /// The consumed item.
    pub item: ItemId,
}

/// Result of one non-blocking poll of an [`EventSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// The next event, in stream order.
    Event(StreamEvent),
    /// Nothing available *right now*, but the stream is still live — the
    /// caller should back off briefly and poll again.
    Pending,
    /// The stream has ended; no further events will ever arrive.
    End,
}

/// A source of consumption events in arrival order.
///
/// Implementations must be **replayable in order**: the trainer's
/// determinism guarantee (same seed + same stream ⇒ bit-identical model)
/// holds for whatever order the source yields, so a source must never
/// reorder, drop, or duplicate events on its own.
pub trait EventSource {
    /// Non-blocking poll for the next event.
    fn poll(&mut self) -> Poll;

    /// Discard the next `n` events (waiting through [`Poll::Pending`]),
    /// used to fast-forward a source to a checkpoint's
    /// `events_processed` offset on resume. Returns how many events were
    /// actually skipped — fewer than `n` only if the stream ended.
    fn skip(&mut self, n: u64) -> u64 {
        let mut skipped = 0;
        while skipped < n {
            match self.poll() {
                Poll::Event(_) => skipped += 1,
                Poll::Pending => std::thread::sleep(std::time::Duration::from_millis(1)),
                Poll::End => break,
            }
        }
        skipped
    }
}

/// In-process source: the receiving end of a crossbeam channel. The
/// sending side is the live workload (e.g. `loadgen --continuous` cloning
/// every event it replays into the trainer); dropping the last sender
/// ends the stream.
pub struct ChannelSource {
    rx: Receiver<StreamEvent>,
}

impl ChannelSource {
    /// Wrap an existing receiver.
    pub fn new(rx: Receiver<StreamEvent>) -> ChannelSource {
        ChannelSource { rx }
    }

    /// An unbounded feed: the sender never blocks, the trainer consumes
    /// at its own pace. This is the right shape for a tap on a serving
    /// workload — training lag must never backpressure request latency.
    pub fn unbounded() -> (Sender<StreamEvent>, ChannelSource) {
        let (tx, rx) = channel::unbounded();
        (tx, ChannelSource { rx })
    }
}

impl EventSource for ChannelSource {
    fn poll(&mut self) -> Poll {
        match self.rx.try_recv() {
            Ok(ev) => Poll::Event(ev),
            Err(TryRecvError::Empty) => Poll::Pending,
            Err(TryRecvError::Disconnected) => Poll::End,
        }
    }
}

/// Append one event in the JSONL wire format [`FileFollowSource`] reads:
/// `{"user":U,"item":V}` + newline.
pub fn write_event_line(w: &mut impl Write, ev: StreamEvent) -> io::Result<()> {
    writeln!(w, "{{\"user\":{},\"item\":{}}}", ev.user.0, ev.item.0)
}

/// Tail a JSONL event log: one `{"user":U,"item":V}` object per line,
/// read strictly in file order. In follow mode, end-of-file is
/// [`Poll::Pending`] — the writer may still be appending — and a partial
/// trailing line is held back until its newline arrives, so a reader
/// racing the writer never sees a torn event. Malformed complete lines
/// are skipped and counted, never silently reordered into garbage.
pub struct FileFollowSource {
    path: PathBuf,
    file: File,
    /// Bytes read from the file but not yet consumed as complete lines.
    buf: Vec<u8>,
    follow: bool,
    parse_errors: u64,
}

impl FileFollowSource {
    /// Open `path` for reading from the beginning. With `follow = true`
    /// the source never ends on its own ([`Poll::Pending`] at EOF) until
    /// [`FileFollowSource::stop_following`] is called; with `false` it
    /// yields [`Poll::End`] at the current end of file.
    pub fn open(path: impl AsRef<Path>, follow: bool) -> io::Result<FileFollowSource> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        Ok(FileFollowSource {
            path,
            file,
            buf: Vec::new(),
            follow,
            parse_errors: 0,
        })
    }

    /// The path being tailed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Complete-but-malformed lines skipped so far.
    pub fn parse_errors(&self) -> u64 {
        self.parse_errors
    }

    /// Switch off follow mode: the next poll that reaches end-of-file
    /// returns [`Poll::End`]. The shutdown path for a tailing trainer.
    pub fn stop_following(&mut self) {
        self.follow = false;
    }

    /// Pop the first complete line out of the pending buffer, if any.
    fn take_line(&mut self) -> Option<Vec<u8>> {
        let pos = self.buf.iter().position(|&b| b == b'\n')?;
        let rest = self.buf.split_off(pos + 1);
        let mut line = std::mem::replace(&mut self.buf, rest);
        line.pop(); // the newline
        Some(line)
    }
}

impl EventSource for FileFollowSource {
    fn poll(&mut self) -> Poll {
        loop {
            while let Some(line) = self.take_line() {
                match parse_event_line(&line) {
                    Some(ev) => return Poll::Event(ev),
                    None => {
                        // Blank separators are tolerated quietly; anything
                        // else that fails to parse is counted.
                        if !line.iter().all(u8::is_ascii_whitespace) {
                            self.parse_errors += 1;
                        }
                    }
                }
            }
            let mut chunk = [0u8; 8192];
            match self.file.read(&mut chunk) {
                Ok(0) => {
                    if self.follow {
                        return Poll::Pending;
                    }
                    // A final line without a trailing newline still counts.
                    if self.buf.is_empty() {
                        return Poll::End;
                    }
                    let line = std::mem::take(&mut self.buf);
                    match parse_event_line(&line) {
                        Some(ev) => return Poll::Event(ev),
                        None => {
                            if !line.iter().all(u8::is_ascii_whitespace) {
                                self.parse_errors += 1;
                            }
                            return Poll::End;
                        }
                    }
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    return if self.follow {
                        Poll::Pending
                    } else {
                        Poll::End
                    }
                }
            }
        }
    }
}

/// Parse one `{"user":U,"item":V}` line as strict JSON. Extra whitespace,
/// extra fields and either key order are fine; a missing key, a value
/// that is not an unsigned integer, or anything after the object is not.
fn parse_event_line(line: &[u8]) -> Option<StreamEvent> {
    let doc = Json::parse(std::str::from_utf8(line).ok()?).ok()?;
    let id = |key: &str| u32::try_from(doc.get(key)?.as_u64()?).ok();
    Some(StreamEvent {
        user: UserId(id("user")?),
        item: ItemId(id("item")?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(user: u32, item: u32) -> StreamEvent {
        StreamEvent {
            user: UserId(user),
            item: ItemId(item),
        }
    }

    #[test]
    fn parses_the_wire_format_and_tolerates_noise() {
        assert_eq!(
            parse_event_line(br#"{"user":3,"item":17}"#),
            Some(ev(3, 17))
        );
        assert_eq!(
            parse_event_line(br#"  { "item" : 5 , "user" : 0 , "ts" : 99 }"#),
            Some(ev(0, 5))
        );
        assert_eq!(parse_event_line(br#"{"user":3}"#), None);
        assert_eq!(parse_event_line(br#"{"user":-1,"item":2}"#), None);
        assert_eq!(parse_event_line(b"garbage"), None);
        // Malformed values are refused whole, never read as a prefix.
        assert_eq!(parse_event_line(br#"{"user":1.5,"item":2}"#), None);
        assert_eq!(parse_event_line(br#"{"user":12abc,"item":2}"#), None);
        // A key inside a string value is not the key.
        assert_eq!(parse_event_line(br#"{"note":"\"user\":7","item":2}"#), None);
        assert_eq!(
            parse_event_line(br#"{"note":"\"user\":7","user":3,"item":2}"#),
            Some(ev(3, 2))
        );
    }

    #[test]
    fn channel_source_drains_then_pends_then_ends() {
        let (tx, mut src) = ChannelSource::unbounded();
        tx.send(ev(1, 2)).unwrap();
        assert_eq!(src.poll(), Poll::Event(ev(1, 2)));
        assert_eq!(src.poll(), Poll::Pending);
        drop(tx);
        assert_eq!(src.poll(), Poll::End);
    }

    #[test]
    fn file_source_follows_partial_lines_until_their_newline() {
        let dir = std::env::temp_dir().join(format!("rrc_stream_src_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let mut f = File::create(&path).unwrap();
        write_event_line(&mut f, ev(1, 10)).unwrap();
        f.write_all(br#"{"user":2,"#).unwrap(); // torn mid-event
        f.sync_all().unwrap();

        let mut src = FileFollowSource::open(&path, true).unwrap();
        assert_eq!(src.poll(), Poll::Event(ev(1, 10)));
        // The torn event is held back, not parsed as garbage.
        assert_eq!(src.poll(), Poll::Pending);
        f.write_all(b"\"item\":20}\n").unwrap();
        f.write_all(b"not json\n").unwrap();
        for mis_parsable in [
            r#"{"user":1.5,"item":2}"#,
            r#"{"user":12abc,"item":2}"#,
            r#"{"note":"\"user\":7","item":2}"#,
        ] {
            writeln!(f, "{mis_parsable}").unwrap();
        }
        write_event_line(&mut f, ev(3, 30)).unwrap();
        f.sync_all().unwrap();
        assert_eq!(src.poll(), Poll::Event(ev(2, 20)));
        assert_eq!(src.poll(), Poll::Event(ev(3, 30)));
        assert_eq!(src.parse_errors(), 4);
        src.stop_following();
        assert_eq!(src.poll(), Poll::End);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_follow_source_reads_an_unterminated_final_line() {
        let dir = std::env::temp_dir().join(format!("rrc_stream_tail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        std::fs::write(&path, br#"{"user":7,"item":8}"#).unwrap();
        let mut src = FileFollowSource::open(&path, false).unwrap();
        assert_eq!(src.poll(), Poll::Event(ev(7, 8)));
        assert_eq!(src.poll(), Poll::End);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn skip_fast_forwards_to_a_resume_offset() {
        let (tx, mut src) = ChannelSource::unbounded();
        for i in 0..5 {
            tx.send(ev(i, i)).unwrap();
        }
        drop(tx);
        assert_eq!(src.skip(3), 3);
        assert_eq!(src.poll(), Poll::Event(ev(3, 3)));
        assert_eq!(src.skip(10), 1); // only one event left
    }
}
