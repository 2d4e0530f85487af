//! Line-timestamping transport wrappers for the serve loop.
//!
//! `serve` reads requests through a `BufRead` and writes responses through
//! a `Write`. These wrappers stand in for both and record, for line `k`,
//! the moment its terminating newline was consumed by the reader or
//! written by the server — so a request's latency is the time from serve
//! reading its line to serve writing its response line, whatever the
//! buffering on either side.

use std::io::{self, BufRead, Read, Write};

/// A `BufRead` over an in-memory request stream that hands out at most
/// `chunk` bytes per `fill_buf` and stamps each line as it is consumed.
pub struct StampedReader<'a, C: FnMut() -> u64> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
    clock: C,
    stamps: Vec<u64>,
}

impl<'a, C: FnMut() -> u64> StampedReader<'a, C> {
    /// Reads `data` in buffers of at most `chunk` bytes (at least 1),
    /// taking timestamps from `clock`.
    pub fn new(data: &'a [u8], chunk: usize, clock: C) -> StampedReader<'a, C> {
        StampedReader {
            data,
            pos: 0,
            chunk: chunk.max(1),
            clock,
            stamps: Vec::new(),
        }
    }

    /// One timestamp per line consumed so far, in line order.
    pub fn into_stamps(self) -> Vec<u64> {
        self.stamps
    }
}

impl<C: FnMut() -> u64> Read for StampedReader<'_, C> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl<C: FnMut() -> u64> BufRead for StampedReader<'_, C> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        let end = self.data.len().min(self.pos + self.chunk);
        Ok(&self.data[self.pos..end])
    }

    fn consume(&mut self, amt: usize) {
        let end = self.data.len().min(self.pos + amt);
        let newlines = self.data[self.pos..end]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        // A final line without a newline ends when its last byte goes.
        let unterminated_tail =
            end == self.data.len() && end > self.pos && self.data.last() != Some(&b'\n');
        let lines = newlines + usize::from(unterminated_tail);
        if lines > 0 {
            let now = (self.clock)();
            self.stamps.extend(std::iter::repeat_n(now, lines));
        }
        self.pos = end;
    }
}

/// A `Write` that collects the response stream in memory and stamps each
/// line as its newline is written.
pub struct StampedWriter<C: FnMut() -> u64> {
    bytes: Vec<u8>,
    clock: C,
    stamps: Vec<u64>,
}

impl<C: FnMut() -> u64> StampedWriter<C> {
    /// An empty response stream taking timestamps from `clock`.
    pub fn new(clock: C) -> StampedWriter<C> {
        StampedWriter {
            bytes: Vec::new(),
            clock,
            stamps: Vec::new(),
        }
    }

    /// The bytes written and one timestamp per completed line.
    pub fn into_parts(self) -> (Vec<u8>, Vec<u64>) {
        (self.bytes, self.stamps)
    }
}

impl<C: FnMut() -> u64> Write for StampedWriter<C> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        if lines > 0 {
            let now = (self.clock)();
            self.stamps.extend(std::iter::repeat_n(now, lines));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Reads `input` line by line through a reader handing out `chunk`
    /// bytes at a time, advancing a manual clock to `100 · (k + 1)` before
    /// the k-th `read_line`; returns the lines and their stamps.
    fn read_all(input: &str, chunk: usize) -> (Vec<String>, Vec<u64>) {
        let now = Cell::new(0u64);
        let mut reader = StampedReader::new(input.as_bytes(), chunk, || now.get());
        let mut lines = Vec::new();
        loop {
            now.set(100 * (lines.len() as u64 + 1));
            let mut line = String::new();
            if reader.read_line(&mut line).expect("in-memory read") == 0 {
                break;
            }
            lines.push(line);
        }
        (lines, reader.into_stamps())
    }

    #[test]
    fn reader_stamps_each_line_when_serve_consumes_it() {
        let input = "first\nsecond\nthird\n";
        // One buffer spanning every line, lines split across buffers,
        // and byte-at-a-time reads all attribute line k to read k.
        for chunk in [4096, 7, 3, 1] {
            let (lines, stamps) = read_all(input, chunk);
            assert_eq!(lines, ["first\n", "second\n", "third\n"], "chunk {chunk}");
            assert_eq!(stamps, [100, 200, 300], "chunk {chunk}");
        }
    }

    #[test]
    fn reader_stamps_an_unterminated_last_line_once() {
        for chunk in [4096, 4, 1] {
            let (lines, stamps) = read_all("a\nlast", chunk);
            assert_eq!(lines, ["a\n", "last"], "chunk {chunk}");
            assert_eq!(stamps, [100, 200], "chunk {chunk}");
        }
    }

    #[test]
    fn reader_stamps_lines_serve_reads_through_lines() {
        let now = Cell::new(0u64);
        let input = "x\ny\nz\n";
        let mut reader = StampedReader::new(input.as_bytes(), 4096, || {
            now.set(now.get() + 1);
            now.get()
        });
        let read: Vec<String> = (&mut reader).lines().map(|l| l.expect("read")).collect();
        assert_eq!(read, ["x", "y", "z"]);
        assert_eq!(reader.into_stamps(), [1, 2, 3]);
    }

    #[test]
    fn writer_stamps_lines_spanning_and_split_across_writes() {
        let now = Cell::new(0u64);
        let mut writer = StampedWriter::new(|| now.get());
        now.set(10);
        writer.write_all(b"r0\nr1\n").expect("write"); // two lines, one write
        now.set(20);
        writer.write_all(b"r2 first half").expect("write"); // no line ends
        now.set(30);
        writer.write_all(b", second half").expect("write");
        now.set(40);
        writer.write_all(b"\n").expect("write"); // the newline lands alone
        now.set(50);
        writer.write_all(b"r3\nr4").expect("write"); // r4 still open
        now.set(60);
        writer.write_all(b"\n").expect("write");
        let (bytes, stamps) = writer.into_parts();
        assert_eq!(
            String::from_utf8(bytes).expect("utf8"),
            "r0\nr1\nr2 first half, second half\nr3\nr4\n"
        );
        assert_eq!(stamps, [10, 10, 40, 50, 60]);
    }
}
