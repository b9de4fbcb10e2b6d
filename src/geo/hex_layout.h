// Hexagonal multi-cell layout.
//
// The paper evaluates "a multi-cellular network comprising several hexagonal
// cells, each centered around a base station", with an inter-site distance
// (ISD) of 1 km. We generate base-station sites on a hexagonal lattice in a
// spiral order (center first, then successive rings), which yields the
// compact S-cell deployments the paper uses (S = 4, S = 9, ...).
//
// Cells are flat-topped regular hexagons of circumradius R = ISD / sqrt(3),
// so that adjacent cell centers are exactly ISD apart.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "geo/point.h"

namespace tsajs::geo {

/// A hexagonal multi-cell deployment.
class HexLayout {
 public:
  /// Builds a layout with `num_cells` base stations on a hex lattice with the
  /// given inter-site distance [m]. Requires num_cells >= 1, isd > 0.
  HexLayout(std::size_t num_cells, double inter_site_distance_m);

  [[nodiscard]] std::size_t num_cells() const noexcept {
    return sites_.size();
  }

  /// Circumradius of one hexagonal cell [m] (= ISD / sqrt(3)).
  [[nodiscard]] double cell_radius() const noexcept;

  /// Base-station position of cell `s`.
  [[nodiscard]] Point site(std::size_t s) const;

  [[nodiscard]] const std::vector<Point>& sites() const noexcept {
    return sites_;
  }

  /// Index of the cell whose center is nearest to `p`.
  [[nodiscard]] std::size_t nearest_cell(Point p) const;

  /// Uniform sample inside the hexagon of cell `s`.
  [[nodiscard]] Point sample_in_cell(std::size_t s, Rng& rng) const;

  /// Uniform sample over the union of all cells (picks a cell uniformly,
  /// then a point inside it — cells are congruent so this is area-uniform).
  [[nodiscard]] Point sample_in_network(Rng& rng) const;

  /// True iff `p` lies inside (or on the boundary of) cell `s`'s hexagon.
  [[nodiscard]] bool contains(std::size_t s, Point p) const;

 private:
  double isd_;
  std::vector<Point> sites_;
};

}  // namespace tsajs::geo
