#include "io/svg.hpp"

#include <fstream>
#include <sstream>

#include "util/check.hpp"

namespace m3d::io {

using netlist::CellId;
using netlist::kInvalidId;
using netlist::kTopTier;
using netlist::NetId;
using netlist::PinId;
using util::Point;

namespace {

const char* kTierFill[2] = {"#4878a8", "#c46a4a"};  // bottom blue, top rust
const char* kMacroFill = "#9a8fb8";
const char* kClockColor = "#207050";
const char* kMemInColor = "#c8a018";
const char* kMemOutColor = "#b03080";
const char* kCritColor = "#d02020";

struct Panel {
  double ox;  // x offset in svg space
  int tier;
};

class SvgBuilder {
 public:
  SvgBuilder(const Design& d, const SvgOptions& opt) : d_(d), opt_(opt) {
    const auto& fp = d.floorplan();
    w_ = fp.width();
    h_ = fp.height();
    panels_.push_back({0.0, 0});
    if (d.num_tiers() == 2) panels_.push_back({w_ + 10.0, 1});
  }

  std::string build() {
    const double total_w = (panels_.size() == 2 ? 2 * w_ + 10.0 : w_);
    os_ << "<svg xmlns='http://www.w3.org/2000/svg' width='"
        << total_w * opt_.scale << "' height='" << h_ * opt_.scale
        << "' viewBox='0 0 " << total_w << " " << h_ << "'>\n";
    os_ << "<rect x='0' y='0' width='" << total_w << "' height='" << h_
        << "' fill='#fbfaf8'/>\n";
    for (const auto& p : panels_) draw_panel(p);
    switch (opt_.overlay) {
      case Overlay::None: break;
      case Overlay::ClockTree: draw_clock(); break;
      case Overlay::MemoryNets: draw_memory_nets(); break;
      case Overlay::CriticalPath: draw_critical_path(); break;
    }
    os_ << "</svg>\n";
    return os_.str();
  }

 private:
  Point map(Point p, int tier) const {
    const auto& fp = d_.floorplan();
    double ox = 0.0;
    for (const auto& pan : panels_)
      if (pan.tier == tier) ox = pan.ox;
    // SVG y grows downward.
    return {p.x - fp.xlo + ox, fp.yhi - p.y};
  }

  void rect(Point center, double w, double h, int tier, const char* fill,
            double opacity) {
    const Point q = map(center, tier);
    os_ << "<rect x='" << q.x - w / 2 << "' y='" << q.y - h / 2
        << "' width='" << w << "' height='" << h << "' fill='" << fill
        << "' fill-opacity='" << opacity << "'/>\n";
  }

  void line(Point a, int tier_a, Point b, int tier_b, const char* color,
            double width, double opacity) {
    const Point qa = map(a, tier_a);
    const Point qb = map(b, tier_b);
    os_ << "<line x1='" << qa.x << "' y1='" << qa.y << "' x2='" << qb.x
        << "' y2='" << qb.y << "' stroke='" << color << "' stroke-width='"
        << width << "' stroke-opacity='" << opacity << "'/>\n";
  }

  void draw_panel(const Panel& pan) {
    const auto& fp = d_.floorplan();
    os_ << "<rect x='" << pan.ox << "' y='0' width='" << fp.width()
        << "' height='" << fp.height()
        << "' fill='#ffffff' stroke='#555555' stroke-width='0.4'/>\n";
    const auto& nl = d_.nl();
    for (CellId c = 0; c < nl.cell_count(); ++c) {
      const auto& cc = nl.cell(c);
      if (cc.is_port() || d_.tier(c) != pan.tier) continue;
      const double w = d_.cell_width(c);
      const double h = d_.cell_height(c);
      if (cc.is_macro()) {
        rect(d_.pos(c), w, h, pan.tier, kMacroFill, 0.85);
      } else {
        rect(d_.pos(c), w, h, pan.tier, kTierFill[pan.tier], 0.75);
      }
    }
    if (opt_.draw_nets) {
      for (NetId n = 0; n < nl.net_count(); ++n) {
        const auto& net = nl.net(n);
        if (net.is_clock || net.driver == kInvalidId) continue;
        const Point a = d_.pin_pos(net.driver);
        nl.for_each_sink(n, [&](PinId s) {
          line(a, d_.tier(nl.pin(net.driver).cell), d_.pin_pos(s),
               d_.tier(nl.pin(s).cell), "#888888", 0.05, 0.25);
        });
      }
    }
  }

  void draw_clock() {
    const auto& nl = d_.nl();
    for (NetId n = 0; n < nl.net_count(); ++n) {
      const auto& net = nl.net(n);
      if (!net.is_clock || net.driver == kInvalidId) continue;
      const Point a = d_.pin_pos(net.driver);
      const int ta = d_.tier(nl.pin(net.driver).cell);
      nl.for_each_sink(n, [&](PinId s) {
        line(a, ta, d_.pin_pos(s), d_.tier(nl.pin(s).cell), kClockColor,
             0.25, 0.8);
      });
    }
    // Highlight clock buffers.
    for (CellId c = 0; c < nl.cell_count(); ++c) {
      const auto& cc = nl.cell(c);
      if (!cc.is_comb() || cc.func != tech::CellFunc::ClkBuf) continue;
      rect(d_.pos(c), 1.5, 1.5, d_.tier(c), kClockColor, 0.9);
    }
  }

  void draw_memory_nets() {
    const auto& nl = d_.nl();
    for (NetId n = 0; n < nl.net_count(); ++n) {
      const auto& net = nl.net(n);
      if (net.is_clock || net.driver == kInvalidId) continue;
      const bool from_macro = nl.cell(nl.pin(net.driver).cell).is_macro();
      bool to_macro = false;
      nl.for_each_sink(n, [&](PinId s) {
        if (nl.cell(nl.pin(s).cell).is_macro()) to_macro = true;
      });
      if (!from_macro && !to_macro) continue;
      const char* color = from_macro ? kMemOutColor : kMemInColor;
      const Point a = d_.pin_pos(net.driver);
      const int ta = d_.tier(nl.pin(net.driver).cell);
      nl.for_each_sink(n, [&](PinId s) {
        line(a, ta, d_.pin_pos(s), d_.tier(nl.pin(s).cell), color, 0.35,
             0.9);
      });
    }
  }

  void draw_critical_path() {
    if (opt_.critical_path == nullptr) return;
    const auto& cp = *opt_.critical_path;
    for (std::size_t i = 1; i < cp.stages.size(); ++i) {
      const auto& a = cp.stages[i - 1];
      const auto& b = cp.stages[i];
      if (a.cell == kInvalidId || b.cell == kInvalidId) continue;
      line(d_.pos(a.cell), d_.tier(a.cell), d_.pos(b.cell),
           d_.tier(b.cell), kCritColor, 0.5, 0.95);
    }
    for (const auto& st : cp.stages)
      if (st.cell != kInvalidId)
        rect(d_.pos(st.cell), 2.0, 2.0, d_.tier(st.cell), kCritColor, 0.95);
  }

  const Design& d_;
  const SvgOptions& opt_;
  double w_, h_;
  std::vector<Panel> panels_;
  std::ostringstream os_;
};

}  // namespace

std::string layout_svg(const Design& d, const SvgOptions& opt) {
  SvgBuilder b(d, opt);
  return b.build();
}

std::string write_layout_svg(const Design& d, const std::string& path,
                             const SvgOptions& opt) {
  std::ofstream out(path);
  M3D_CHECK_MSG(out.good(), "cannot open " << path);
  out << layout_svg(d, opt);
  return path;
}

}  // namespace m3d::io
