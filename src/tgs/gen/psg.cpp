#include "tgs/gen/psg.h"

#include "tgs/gen/structured.h"
#include "tgs/util/names.h"

namespace tgs {

TaskGraph psg_canonical9() {
  TaskGraphBuilder b("psg_canonical9");
  const NodeId n1 = b.add_node(2, "n1");
  const NodeId n2 = b.add_node(3, "n2");
  const NodeId n3 = b.add_node(3, "n3");
  const NodeId n4 = b.add_node(4, "n4");
  const NodeId n5 = b.add_node(5, "n5");
  const NodeId n6 = b.add_node(4, "n6");
  const NodeId n7 = b.add_node(4, "n7");
  const NodeId n8 = b.add_node(4, "n8");
  const NodeId n9 = b.add_node(1, "n9");
  b.add_edge(n1, n2, 4);
  b.add_edge(n1, n3, 1);
  b.add_edge(n1, n4, 1);
  b.add_edge(n1, n5, 1);
  b.add_edge(n1, n7, 10);
  b.add_edge(n2, n6, 1);
  b.add_edge(n2, n7, 1);
  b.add_edge(n3, n7, 1);
  b.add_edge(n3, n8, 1);
  b.add_edge(n4, n8, 1);
  b.add_edge(n5, n8, 1);
  b.add_edge(n6, n9, 5);
  b.add_edge(n7, n9, 6);
  b.add_edge(n8, n9, 5);
  return b.finalize();
}

TaskGraph psg_irregular13() {
  // Three stages: a wide scatter (n1 feeds five workers with very uneven
  // message sizes), a cross-coupled middle (workers exchange through two
  // combiners), and a heavy reduction. Designed so that greedy placement
  // of the big-message child (n6) on the source processor is tempting but
  // suboptimal -- the kind of trap peer-set graphs are used to expose.
  TaskGraphBuilder b("psg_irregular13");
  const NodeId n1 = b.add_node(6, "n1");
  const NodeId n2 = b.add_node(7, "n2");
  const NodeId n3 = b.add_node(3, "n3");
  const NodeId n4 = b.add_node(9, "n4");
  const NodeId n5 = b.add_node(4, "n5");
  const NodeId n6 = b.add_node(12, "n6");
  const NodeId n7 = b.add_node(5, "n7");
  const NodeId n8 = b.add_node(8, "n8");
  const NodeId n9 = b.add_node(6, "n9");
  const NodeId n10 = b.add_node(3, "n10");
  const NodeId n11 = b.add_node(7, "n11");
  const NodeId n12 = b.add_node(5, "n12");
  const NodeId n13 = b.add_node(10, "n13");
  b.add_edge(n1, n2, 3);
  b.add_edge(n1, n3, 14);
  b.add_edge(n1, n4, 2);
  b.add_edge(n1, n5, 8);
  b.add_edge(n1, n6, 20);
  b.add_edge(n2, n7, 4);
  b.add_edge(n3, n7, 6);
  b.add_edge(n3, n8, 2);
  b.add_edge(n4, n8, 11);
  b.add_edge(n5, n9, 3);
  b.add_edge(n6, n9, 5);
  b.add_edge(n6, n10, 16);
  b.add_edge(n7, n11, 7);
  b.add_edge(n8, n11, 3);
  b.add_edge(n8, n12, 9);
  b.add_edge(n9, n12, 4);
  b.add_edge(n10, n13, 6);
  b.add_edge(n11, n13, 12);
  b.add_edge(n12, n13, 2);
  return b.finalize();
}

TaskGraph psg_pipelines16() {
  // Two four-stage pipelines (a1..a4, b1..b4) that exchange intermediate
  // results at stages 2 and 3, fed by one source and drained by one sink.
  // Tests whether an algorithm keeps each pipeline local while placing the
  // cross-links sensibly.
  TaskGraphBuilder b("psg_pipelines16");
  const NodeId src = b.add_node(4, "src");
  NodeId a[4], c[4];
  for (int i = 0; i < 4; ++i)
    a[i] = b.add_node(6 + i, numbered_name("a", i + 1));
  for (int i = 0; i < 4; ++i)
    c[i] = b.add_node(5 + i, numbered_name("b", i + 1));
  const NodeId mix1 = b.add_node(3, "x1");
  const NodeId mix2 = b.add_node(3, "x2");
  const NodeId pre = b.add_node(2, "pre");
  const NodeId post = b.add_node(7, "post");
  const NodeId chk1 = b.add_node(2, "chk1");
  const NodeId chk2 = b.add_node(2, "chk2");
  const NodeId sink = b.add_node(5, "sink");

  // Checker side-tasks observing the mixing stages.
  b.add_edge(mix1, chk1, 1);
  b.add_edge(mix2, chk2, 1);
  b.add_edge(chk1, sink, 1);
  b.add_edge(chk2, sink, 1);

  b.add_edge(src, pre, 1);
  b.add_edge(pre, a[0], 2);
  b.add_edge(pre, c[0], 2);
  for (int i = 0; i < 3; ++i) {
    b.add_edge(a[i], a[i + 1], 3);
    b.add_edge(c[i], c[i + 1], 3);
  }
  b.add_edge(a[1], mix1, 9);
  b.add_edge(c[1], mix1, 9);
  b.add_edge(mix1, a[3], 4);
  b.add_edge(a[2], mix2, 8);
  b.add_edge(c[2], mix2, 8);
  b.add_edge(mix2, c[3], 4);
  b.add_edge(a[3], post, 5);
  b.add_edge(c[3], post, 5);
  b.add_edge(post, sink, 2);
  b.add_edge(src, sink, 30);  // long bypass message
  return b.finalize();
}

std::vector<PsgEntry> peer_set_graphs() {
  std::vector<PsgEntry> out;
  out.push_back({psg_canonical9(),
                 "canonical 9-node example (survey Fig.1 style), CP=23"});
  out.push_back({fork_join(6, 8, 12), "fork-join, 6-way, comm-heavy"});
  out.push_back({diamond_lattice(4, 6, 3), "4x4 diamond wavefront"});
  out.push_back({out_tree(3, 2, 5, 4), "binary out-tree, depth 3"});
  out.push_back({in_tree(3, 2, 5, 4), "binary in-tree (reduction), depth 3"});
  out.push_back({psg_irregular13(), "irregular 13-node scatter/combine"});
  out.push_back({psg_pipelines16(), "16-node crossed pipelines"});
  return out;
}

}  // namespace tgs
