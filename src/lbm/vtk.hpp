#pragma once
/// \file vtk.hpp
/// Legacy-ASCII VTK output of the simulation fields (structured points),
/// loadable by ParaView/VisIt for the kind of flow visualization the
/// paper's Figures 6-7 are drawn from.

#include <string>

#include "lbm/slab.hpp"

namespace slipflow::lbm {

/// Write the slab's *owned* region to `path` as a STRUCTURED_POINTS
/// dataset: one scalar field per component number density, the total
/// mass density, and the mixture velocity vector field. The dataset
/// origin encodes the slab's global x offset so per-rank files tile the
/// domain.
void write_vtk(const Slab& slab, const std::string& path,
               const std::string& title = "slipflow fields");

}  // namespace slipflow::lbm
