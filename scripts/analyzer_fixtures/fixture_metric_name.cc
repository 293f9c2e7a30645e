// Self-test fixture for the metric-name rule's registration sites. Never
// compiled — parsed only by scripts/payg_analyzer.py --self-test.
namespace payg {

void RegisterMetrics(Registry* reg) {
  // Violation: "pagecache" is not a DESIGN.md §6 layer.
  hits_ = reg->counter("pagecache.hits");
  // Violation: query.* counters come only from the per-query list.
  rogue_ = reg->counter("query.rogue");
}

}  // namespace payg
