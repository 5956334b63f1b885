// Fixture for natto-site-bypass in the engines' shared core: a coordinator
// timer scheduled directly on the simulator instead of its site lane.
// Scanned, never compiled.

void CoordinatorBase::ExpireTombstone(TxnId id) {
  // Fires: an absolute-time schedule from a coordinator bypasses its lane.
  transport()->simulator()->ScheduleAt(Seconds(10), [this, id]() {});

  // Clean: Node::After routes the timer to this coordinator's site lane.
  After(Seconds(10), [this, id]() {});
}
