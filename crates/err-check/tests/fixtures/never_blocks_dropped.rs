// Violating fixture: a wrapper that forwards `try_emit` to its inner
// sink but not `never_blocks`. The default (`false`) hides the inner
// sink's promise, so a worker that could run the flusher step itself
// gets a flusher thread back.
impl<E: Egress> Egress for TracingSink<E> {
    fn emit(&mut self, shard: usize, flit: &ServedFlit) {
        self.log.push((shard, flit.packet));
        self.inner.emit(shard, flit);
    }

    fn try_emit(&mut self, shard: usize, flit: &ServedFlit) -> bool {
        if !self.inner.try_emit(shard, flit) {
            return false;
        }
        self.log.push((shard, flit.packet));
        true
    }
}
