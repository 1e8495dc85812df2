// Passing fixture: the wrapper forwards both delivery paths, so the
// inner sink's refusal stays a refusal.
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

// Passing fixture: a sink that deliberately inherits the default and
// says so.
// try-emit: this sink is terminal and never refuses; the default's
// delegation to `emit` is the intended behavior.
impl Egress for CountingSink {
    fn emit(&mut self, _shard: usize, _flit: &ServedFlit) {
        self.count += 1;
    }
}
