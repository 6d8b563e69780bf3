//! WAL byte-order fixture: the approved append path plus two
//! out-of-band backend writes.

impl Log {
    fn append_with(&mut self, bytes: &[u8]) {
        self.sink.append(bytes);
    }

    fn rogue_append(&mut self, bytes: &[u8]) {
        self.sink.append(bytes);
    }

    fn raw_write(&self, out: &mut File, bytes: &[u8]) {
        out.write_all(bytes).ok();
    }
}
