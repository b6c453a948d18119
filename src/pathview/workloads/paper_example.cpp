#include "pathview/workloads/paper_example.hpp"

namespace pathview::workloads {

PaperExample::PaperExample() {
  using model::Event;
  model::ProgramBuilder b;
  const auto mod = b.module("a.out");
  const auto file1 = b.file("file1.c", mod);
  const auto file2 = b.file("file2.c", mod);

  f = b.proc("f", file1, 1);
  m = b.proc("m", file1, 6);
  g = b.proc("g", file2, 2);
  h = b.proc("h", file2, 7);

  call_f_g = b.in(f).call_stmt(2, g);
  call_m_f = b.in(m).call_stmt(7, f);
  call_m_g = b.in(m).call_stmt(8, g);
  call_g_g =
      b.in(g).call_stmt(3, g, {.prob = 0.5, .max_rec_depth = 2, .cost = {}});
  call_g_h = b.in(g).call_stmt(
      4, h, {.prob = 0.5, .max_rec_depth = 64, .cost = {}});
  const model::StmtId l1 = b.in(h).loop(8, 1);
  const model::StmtId l2 = b.in(h, l1).loop(9, 4);
  stmt_l2 = l2;  // the compute statement shares l2's line
  b.in(h, l2).compute(9, model::make_cost(1.0));
  b.set_entry(m);

  program_ = std::make_unique<model::Program>(b.finish());
  lowering_ = std::make_unique<structure::Lowering>(*program_);
  tree_ = std::make_unique<structure::StructureTree>(
      structure::recover_structure(lowering_->image()));

  // --- Hand-assemble the Fig. 2a profile (cycle samples, period 1). -------
  const structure::Lowering& lw = *lowering_;
  const auto top = model::kTopLevelFrame;
  auto site = [&](model::StmtId s) { return lw.addr(top, s); };

  sim::RawProfile& p = profile_;
  const auto n_m = p.child(sim::kRawRoot, 0, lw.proc_entry(m));
  const auto n_f = p.child(n_m, site(call_m_f), lw.proc_entry(f));
  const auto n_g1 = p.child(n_f, site(call_f_g), lw.proc_entry(g));
  const auto n_g2 = p.child(n_g1, site(call_g_g), lw.proc_entry(g));
  const auto n_h = p.child(n_g2, site(call_g_h), lw.proc_entry(h));
  const auto n_g3 = p.child(n_m, site(call_m_g), lw.proc_entry(g));

  // f: 1 sample at its call line (file1.c:2).
  p.add_sample(n_f, site(call_f_g), Event::kCycles, 1.0);
  // g1: 1 sample at the recursive call line (file2.c:3).
  p.add_sample(n_g1, site(call_g_g), Event::kCycles, 1.0);
  // g2: 1 sample at the same static line, one recursion level deeper.
  p.add_sample(n_g2, site(call_g_g), Event::kCycles, 1.0);
  // g3 (called from m): 3 samples across its two condition lines.
  p.add_sample(n_g3, site(call_g_g), Event::kCycles, 1.0);
  p.add_sample(n_g3, site(call_g_h), Event::kCycles, 2.0);
  // h: 4 samples in the compute statement of the inner loop l2.
  const model::StmtId l2_body = program_->proc(h).body.empty()
                                    ? model::kInvalidId
                                    : [&] {
                                        // h.body = [l1]; l1.body = [l2];
                                        // l2.body = [compute]
                                        const auto& l1s =
                                            program_->proc(h).body.front();
                                        const auto& l2s =
                                            program_->stmt(l1s).body.front();
                                        return program_->stmt(l2s).body.front();
                                      }();
  p.add_sample(n_h, lw.addr(top, l2_body), Event::kCycles, 4.0);
  p.sort_cells();
}

}  // namespace pathview::workloads
