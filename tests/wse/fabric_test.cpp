#include "wse/fabric.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>

namespace wss::wse {
namespace {

CS1Params small_arch() {
  CS1Params a;
  a.fabric_x = 4;
  a.fabric_y = 4;
  return a;
}

/// Build a minimal program that sends `len` fp16 words from memory on
/// `color` and completes.
TileProgram sender_program(Color color, int len) {
  TileProgram prog;
  MemAllocator mem(48 * 1024);
  const int buf = mem.allocate(len, DType::F16);
  const int t_src = prog.add_tensor({buf, len, 1, DType::F16, 0});
  const int f_tx = prog.add_fabric({color, len, DType::F16, 0, kNoTask,
                                    TrigAction::None});
  Task t{"send", false, false, false, {}};
  Instr s{};
  s.op = OpKind::Send;
  s.src1 = t_src;
  s.fabric = f_tx;
  t.steps.push_back({TaskStep::Kind::Sync, -1, s, kNoTask});
  t.steps.push_back({TaskStep::Kind::SetDone, -1, {}, kNoTask});
  prog.add_task(std::move(t));
  prog.initial_task = 0;
  prog.memory_halfwords = mem.used_halfwords();
  return prog;
}

/// Program that receives `len` fp16 words on `channel` into memory. With
/// `busy_elems` > 0 it first copies that many local elements (four per
/// cycle), leaving the arriving stream to back up into the fabric.
TileProgram receiver_program(int channel, int len, int* buf_out,
                             int busy_elems = 0) {
  TileProgram prog;
  MemAllocator mem(48 * 1024);
  const int buf = mem.allocate(len, DType::F16);
  *buf_out = buf;
  const int t_dst = prog.add_tensor({buf, len, 1, DType::F16, 0});
  const int f_rx = prog.add_fabric({channel, len, DType::F16, 0, kNoTask,
                                    TrigAction::None});
  Task t{"recv", false, false, false, {}};
  if (busy_elems > 0) {
    const int work = mem.allocate(busy_elems, DType::F16);
    Instr busy{};
    busy.op = OpKind::CopyV;
    busy.dst = prog.add_tensor({work, busy_elems, 1, DType::F16, 0});
    busy.src1 = prog.add_tensor({work, busy_elems, 1, DType::F16, 0});
    t.steps.push_back({TaskStep::Kind::Sync, -1, busy, kNoTask});
  }
  Instr r{};
  r.op = OpKind::RecvToMem;
  r.dst = t_dst;
  r.fabric = f_rx;
  t.steps.push_back({TaskStep::Kind::Sync, -1, r, kNoTask});
  t.steps.push_back({TaskStep::Kind::SetDone, -1, {}, kNoTask});
  prog.add_task(std::move(t));
  prog.initial_task = 0;
  prog.memory_halfwords = mem.used_halfwords();
  return prog;
}

TileProgram idle_program() {
  TileProgram prog;
  Task t{"idle", false, false, false, {}};
  t.steps.push_back({TaskStep::Kind::SetDone, -1, {}, kNoTask});
  prog.add_task(std::move(t));
  prog.initial_task = 0;
  return prog;
}

TEST(Fabric, PointToPointEastward) {
  const CS1Params arch = small_arch();
  const SimParams sim;
  Fabric fabric(2, 1, arch, sim);

  const Color color = 3;
  const int len = 10;

  // Sender at (0,0): its routing forwards color 3 east.
  RoutingTable send_routes;
  send_routes.rule(color).add_forward(Dir::East);
  fabric.configure_tile(0, 0, sender_program(color, len), send_routes);

  // Receiver at (1,0): deliver color 3 to channel 3.
  RoutingTable recv_routes;
  recv_routes.rule(color).deliver_channels.push_back(color);
  int buf = 0;
  fabric.configure_tile(1, 0, receiver_program(color, len, &buf), recv_routes);

  for (int i = 0; i < len; ++i) {
    fabric.core(0, 0).host_write_f16(i, fp16_t(static_cast<double>(i) * 0.5));
  }
  fabric.run(1000);
  ASSERT_TRUE(fabric.all_done());
  for (int i = 0; i < len; ++i) {
    EXPECT_EQ(fabric.core(1, 0).host_read_f16(buf + i).to_double(), i * 0.5);
  }
}

TEST(Fabric, MultiHopLatencyIsAboutOneCyclePerHop) {
  const CS1Params arch = small_arch();
  const SimParams sim;
  // A 1 x N line: one word travels from the west end to the east end.
  const int n = 12;
  Fabric fabric(n, 1, arch, sim);
  const Color color = 1;

  RoutingTable send_routes;
  send_routes.rule(color).add_forward(Dir::East);
  fabric.configure_tile(0, 0, sender_program(color, 1), send_routes);
  for (int x = 1; x < n - 1; ++x) {
    RoutingTable fwd;
    fwd.rule(color).add_forward(Dir::East);
    fabric.configure_tile(x, 0, idle_program(), fwd);
  }
  RoutingTable recv_routes;
  recv_routes.rule(color).deliver_channels.push_back(color);
  int buf = 0;
  fabric.configure_tile(n - 1, 0, receiver_program(color, 1, &buf),
                        recv_routes);
  fabric.core(0, 0).host_write_f16(0, fp16_t(7.0));

  const std::uint64_t cycles = fabric.run(1000).cycles;
  ASSERT_TRUE(fabric.all_done());
  EXPECT_EQ(fabric.core(n - 1, 0).host_read_f16(buf).to_double(), 7.0);
  // n-1 hops; allow a small constant for task start and ramp traversal.
  EXPECT_LE(cycles, static_cast<std::uint64_t>(3 * (n - 1) + 16));
  EXPECT_GE(cycles, static_cast<std::uint64_t>(n - 1));
}

TEST(Fabric, MulticastFanout) {
  // Center tile broadcasts to all four neighbors at once.
  const CS1Params arch = small_arch();
  const SimParams sim;
  Fabric fabric(3, 3, arch, sim);
  const Color color = 2;
  const int len = 5;

  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      if (x == 1 && y == 1) continue;
      RoutingTable routes;
      routes.rule(color).deliver_channels.push_back(color);
      if (x == 1 || y == 1) {
        int buf = 0;
        fabric.configure_tile(x, y, receiver_program(color, len, &buf),
                              routes);
      } else {
        fabric.configure_tile(x, y, idle_program(), routes);
      }
    }
  }
  RoutingTable bcast;
  bcast.rule(color).add_forward(Dir::North);
  bcast.rule(color).add_forward(Dir::South);
  bcast.rule(color).add_forward(Dir::East);
  bcast.rule(color).add_forward(Dir::West);
  fabric.configure_tile(1, 1, sender_program(color, len), bcast);
  for (int i = 0; i < len; ++i) {
    fabric.core(1, 1).host_write_f16(i, fp16_t(static_cast<double>(i + 1)));
  }

  fabric.run(1000);
  ASSERT_TRUE(fabric.all_done());
  // All four face neighbors received identical copies (buffer offset 0 in
  // receiver_program's allocator).
  for (const auto& [x, y] :
       {std::pair{1, 0}, std::pair{1, 2}, std::pair{0, 1}, std::pair{2, 1}}) {
    for (int i = 0; i < len; ++i) {
      EXPECT_EQ(fabric.core(x, y).host_read_f16(i).to_double(), i + 1.0)
          << "neighbor (" << x << "," << y << ")";
    }
  }
}

TEST(Fabric, BackpressureDoesNotLoseWords) {
  // Small queues, long stream: every word still arrives, in order.
  const CS1Params arch = small_arch();
  SimParams sim;
  sim.router_queue_depth = 1;
  sim.ramp_queue_depth = 1;
  Fabric fabric(2, 1, arch, sim);
  const Color color = 4;
  const int len = 64;

  RoutingTable send_routes;
  send_routes.rule(color).add_forward(Dir::East);
  fabric.configure_tile(0, 0, sender_program(color, len), send_routes);
  RoutingTable recv_routes;
  recv_routes.rule(color).deliver_channels.push_back(color);
  int buf = 0;
  fabric.configure_tile(1, 0, receiver_program(color, len, &buf), recv_routes);
  for (int i = 0; i < len; ++i) {
    fabric.core(0, 0).host_write_f16(i, fp16_t(static_cast<double>(i % 31)));
  }
  fabric.run(10000);
  ASSERT_TRUE(fabric.all_done());
  for (int i = 0; i < len; ++i) {
    EXPECT_EQ(fabric.core(1, 0).host_read_f16(buf + i).to_double(),
              static_cast<double>(i % 31));
  }
}

TEST(Fabric, DeepQueuesFillBehindStalledReceiver) {
  // The receiver computes for ~100 cycles before it drains its channel, so
  // the stream backs up through its depth-32 ramp and its 8-flit in-queue
  // (two cycles of a 4-halfword link) into the sender's depth-16
  // out-queue. Every queue fills to its full depth — deeper than any
  // default — and every word still arrives, in order.
  const CS1Params arch = small_arch();
  SimParams sim;
  sim.router_queue_depth = 16;
  sim.ramp_queue_depth = 32;
  sim.link_halfwords_per_cycle = 4;
  Fabric fabric(2, 1, arch, sim);
  const Color color = 6;
  const int len = 96;

  RoutingTable send_routes;
  send_routes.rule(color).add_forward(Dir::East);
  fabric.configure_tile(0, 0, sender_program(color, len), send_routes);
  RoutingTable recv_routes;
  recv_routes.rule(color).deliver_channels.push_back(color);
  int buf = 0;
  fabric.configure_tile(1, 0, receiver_program(color, len, &buf, 400),
                        recv_routes);
  for (int i = 0; i < len; ++i) {
    fabric.core(0, 0).host_write_f16(i, fp16_t(static_cast<double>(i % 31)));
  }
  fabric.run(10000);
  ASSERT_TRUE(fabric.all_done());
  EXPECT_EQ(fabric.router_stats(0, 0).queue_highwater, 16u);
  EXPECT_EQ(fabric.core(1, 0).stats().ramp_highwater, 32u);
  for (int i = 0; i < len; ++i) {
    EXPECT_EQ(fabric.core(1, 0).host_read_f16(buf + i).to_double(),
              static_cast<double>(i % 31));
  }
}

/// Building a fabric with `sim` must throw std::invalid_argument naming
/// `field`.
void expect_rejected(const SimParams& sim, const std::string& field) {
  const CS1Params arch = small_arch();
  try {
    Fabric fabric(1, 1, arch, sim);
    ADD_FAILURE() << field << " accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(Fabric, RejectsRouterQueueDepthOutsideRingRange) {
  for (const int depth : {0, -1, FifoRing<Flit>::kMaxCapacity + 1}) {
    SimParams sim;
    sim.router_queue_depth = depth;
    expect_rejected(sim, "router_queue_depth");
  }
}

TEST(Fabric, RejectsRampQueueDepthOutsideRingRange) {
  for (const int depth : {0, -1, FifoRing<std::uint32_t>::kMaxCapacity + 1}) {
    SimParams sim;
    sim.ramp_queue_depth = depth;
    expect_rejected(sim, "ramp_queue_depth");
  }
}

TEST(Fabric, RejectsLinkWidthOutsideRingRange) {
  // In-queues hold two link-cycles of halfwords.
  for (const int width : {0, -1, FifoRing<Flit>::kMaxCapacity / 2 + 1}) {
    SimParams sim;
    sim.link_halfwords_per_cycle = width;
    expect_rejected(sim, "link_halfwords_per_cycle");
  }
}

/// configure_tile with `routes` must throw std::invalid_argument whose
/// message contains every string in `parts`.
void expect_routes_rejected(const RoutingTable& routes,
                            std::initializer_list<std::string> parts) {
  const CS1Params arch = small_arch();
  const SimParams sim;
  Fabric fabric(2, 2, arch, sim);
  try {
    fabric.configure_tile(1, 0, idle_program(), routes);
    ADD_FAILURE() << "routes accepted";
  } catch (const std::invalid_argument& e) {
    for (const std::string& part : parts) {
      EXPECT_NE(std::string(e.what()).find(part), std::string::npos)
          << e.what() << " lacks " << part;
    }
  }
  EXPECT_FALSE(fabric.has_core(1, 0));
}

TEST(Fabric, RejectsDuplicateDeliverChannel) {
  // One space check per entry but one push per entry: a repeated channel
  // would be pushed past its ramp depth.
  RoutingTable routes;
  routes.rule(5).deliver_channels = {2, 9, 2};
  expect_routes_rejected(routes, {"(1,0)", "color 5", "channel 2", "twice"});
}

TEST(Fabric, RejectsOutOfRangeDeliverChannel) {
  for (const int ch : {-1, kNumLocalChannels}) {
    RoutingTable routes;
    routes.rule(7).deliver_channels = {ch};
    expect_routes_rejected(
        routes, {"(1,0)", "color 7", "channel " + std::to_string(ch)});
  }
}

} // namespace
} // namespace wss::wse
