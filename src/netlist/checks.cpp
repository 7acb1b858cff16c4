#include "netlist/checks.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace m3d::netlist {

namespace {

void add(std::vector<CheckViolation>& out, CheckSeverity sev,
         const std::string& rule, const std::string& msg,
         CellId cell = kInvalidId, NetId net = kInvalidId) {
  out.push_back({sev, rule, msg, cell, net});
}

void check_tiers(const Design& d, std::vector<CheckViolation>& out) {
  const auto& nl = d.nl();
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const int t = d.tier(c);
    if (t < 0 || t >= d.num_tiers())
      add(out, CheckSeverity::Error, "tier.range",
          std::string(nl.cell(c).name) + " sits on nonexistent tier " +
              std::to_string(t),
          c);
  }
}

void check_placement(const Design& d, const CheckOptions& opt,
                     std::vector<CheckViolation>& out) {
  const auto& nl = d.nl();
  const auto fp = d.floorplan();
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const auto& cc = nl.cell(c);
    if (cc.is_port()) continue;
    const auto p = d.pos(c);
    const double w2 = d.cell_width(c) / 2.0;
    const double h2 = d.cell_height(c) / 2.0;
    if (p.x - w2 < fp.xlo - 1e-6 || p.x + w2 > fp.xhi + 1e-6 ||
        p.y - h2 < fp.ylo - 1e-6 || p.y + h2 > fp.yhi + 1e-6)
      add(out, CheckSeverity::Error, "placement.outside",
          std::string(cc.name) + " extends beyond the die", c);
    if (opt.check_rows && (cc.is_comb() || cc.is_sequential())) {
      const double row_h = d.lib_of(c).row_height_um();
      const double rel = (p.y - fp.ylo) / row_h - 0.5;
      if (std::abs(rel - std::round(rel)) > 1e-6)
        add(out, CheckSeverity::Error, "placement.off_row",
            std::string(cc.name) + " not aligned to its tier's row grid", c);
    }
  }

  for_each_overlap(d, [&](CellId a, CellId b, double, double oy) {
    if (oy > 1e-6)
      add(out, CheckSeverity::Error, "placement.overlap",
          std::string(nl.cell(a).name) + " overlaps " +
              std::string(nl.cell(b).name),
          a);
  });
}

void check_electrical(const Design& d, const CheckOptions& opt,
                      std::vector<CheckViolation>& out) {
  const auto& nl = d.nl();
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(n);
    if (net.driver == kInvalidId) continue;
    const int fo = nl.fanout(n);
    if (fo > opt.max_fanout)
      add(out, CheckSeverity::Warning, "electrical.fanout",
          "net " + std::string(net.name) + " fans out to " +
              std::to_string(fo),
          kInvalidId, n);
    double load = 0.0;
    nl.for_each_sink(n, [&](PinId s) { load += d.pin_cap_ff(s); });
    if (load > opt.max_load_ff)
      add(out, CheckSeverity::Warning, "electrical.load",
          "net " + std::string(net.name) + " carries " +
              std::to_string(load) + " fF",
          kInvalidId, n);
  }
}

void check_clocking(const Design& d, std::vector<CheckViolation>& out) {
  const auto& nl = d.nl();
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const auto& cc = nl.cell(c);
    if (!cc.is_sequential() && !cc.is_macro()) continue;
    const PinId ck = nl.clock_pin(c);
    if (ck == kInvalidId || nl.pin(ck).net == kInvalidId) {
      add(out, CheckSeverity::Error, "clock.unclocked",
          std::string(cc.name) + " has no clock connection", c);
      continue;
    }
    if (!nl.net(nl.pin(ck).net).is_clock)
      add(out, CheckSeverity::Error, "clock.data_net",
          std::string(cc.name) + "'s clock pin rides a data net", c);
  }
  // Clock nets must not feed ordinary data inputs.
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(n);
    if (!net.is_clock) continue;
    nl.for_each_sink(n, [&](PinId p) {
      const auto& pp = nl.pin(p);
      const auto& cc = nl.cell(pp.cell);
      const bool ok = pp.is_clock ||
                      (cc.is_comb() && cc.func == tech::CellFunc::ClkBuf);
      if (!ok)
        add(out, CheckSeverity::Warning, "clock.leak",
            "clock net " + std::string(net.name) + " drives data pin on " +
                std::string(cc.name),
            pp.cell, n);
    });
  }
}

void check_dangling(const Design& d, std::vector<CheckViolation>& out) {
  const auto& nl = d.nl();
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(n);
    if (net.driver == kInvalidId || net.is_clock) continue;
    if (nl.fanout(n) == 0)
      add(out, CheckSeverity::Warning, "logic.dangling",
          "net " + std::string(net.name) + " is driven but unread",
          kInvalidId, n);
  }
}

}  // namespace

void for_each_overlap(
    const Design& d,
    const std::function<void(CellId a, CellId b, double ox, double oy)>& fn) {
  const auto& nl = d.nl();
  const util::Rect fp = d.floorplan();
  struct Box {
    CellId cell;
    double x0, x1, y0, y1;
  };
  struct Link {
    int next;  // previous entry of the same bucket, -1 ends the chain
    std::size_t box;
  };
  std::vector<Box> box;
  std::vector<int> head;
  std::vector<Link> chain;
  for (int tier = 0; tier < d.num_tiers(); ++tier) {
    box.clear();
    for (CellId c = 0; c < nl.cell_count(); ++c) {
      if (nl.cell(c).is_port() || d.tier(c) != tier) continue;
      const util::Point p = d.pos(c);
      const double w2 = d.cell_width(c) / 2.0;
      const double h2 = d.cell_height(c) / 2.0;
      box.push_back({c, p.x - w2, p.x + w2, p.y - h2, p.y + h2});
    }
    if (box.size() < 2) continue;

    const double area = std::max(1e-6, fp.width() * fp.height());
    const double bs = std::max(
        1e-3, std::sqrt(2.0 * area / static_cast<double>(box.size())));
    const int nx = std::max(1, static_cast<int>(std::ceil(fp.width() / bs)));
    const int ny = std::max(1, static_cast<int>(std::ceil(fp.height() / bs)));
    // Monotone in the coordinate, so a box's buckets contain the bucket of
    // every point inside it — in particular its intersection corners.
    const auto bucket_x = [&](double x) {
      const int i = static_cast<int>(std::floor((x - fp.xlo) / bs));
      return std::min(nx - 1, std::max(0, i));
    };
    const auto bucket_y = [&](double y) {
      const int i = static_cast<int>(std::floor((y - fp.ylo) / bs));
      return std::min(ny - 1, std::max(0, i));
    };

    head.assign(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny),
                -1);
    chain.clear();
    for (std::size_t i = 0; i < box.size(); ++i) {
      const Box& a = box[i];
      const int ix0 = bucket_x(a.x0), ix1 = bucket_x(a.x1);
      const int iy0 = bucket_y(a.y0), iy1 = bucket_y(a.y1);
      for (int iy = iy0; iy <= iy1; ++iy)
        for (int ix = ix0; ix <= ix1; ++ix) {
          int& first = head[static_cast<std::size_t>(iy) *
                                static_cast<std::size_t>(nx) +
                            static_cast<std::size_t>(ix)];
          // Compare against every earlier cell in this bucket, then link.
          for (int e = first; e != -1; e = chain[e].next) {
            const Box& o = box[chain[e].box];
            const double cx = std::max(a.x0, o.x0);
            const double cy = std::max(a.y0, o.y0);
            const double ox = std::min(a.x1, o.x1) - cx;
            const double oy = std::min(a.y1, o.y1) - cy;
            if (ox > 1e-9 && oy > 1e-9 && bucket_x(cx) == ix &&
                bucket_y(cy) == iy)
              fn(o.cell, a.cell, ox, oy);
          }
          chain.push_back({first, i});
          first = static_cast<int>(chain.size()) - 1;
        }
    }
  }
}

std::vector<CheckViolation> run_checks(const Design& d,
                                       const CheckOptions& opt) {
  std::vector<CheckViolation> out;
  check_tiers(d, out);
  if (opt.check_placement) check_placement(d, opt, out);
  check_electrical(d, opt, out);
  check_clocking(d, out);
  check_dangling(d, out);
  return out;
}

int count_violations(const std::vector<CheckViolation>& v,
                     CheckSeverity severity) {
  return static_cast<int>(
      std::count_if(v.begin(), v.end(), [&](const CheckViolation& x) {
        return x.severity == severity;
      }));
}

std::string check_report(const std::vector<CheckViolation>& v) {
  std::ostringstream os;
  os << v.size() << " violation(s): "
     << count_violations(v, CheckSeverity::Error) << " error(s), "
     << count_violations(v, CheckSeverity::Warning) << " warning(s)\n";
  for (const auto& x : v)
    os << "  [" << (x.severity == CheckSeverity::Error ? "ERROR" : "warn ")
       << "] " << x.rule << ": " << x.message << "\n";
  return os.str();
}

}  // namespace m3d::netlist
