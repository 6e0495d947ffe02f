// TG -- Traced Graphs (paper §5.5): task graphs of real numerical kernels.
//
// The paper uses Cholesky factorization DAGs produced by a parallelizing
// compiler (CASCH); "for a matrix dimension of N, the graph size is
// O(N^2)". We generate the same dependence structures analytically from
// the kernels' loop nests instead of with a compiler: column-oriented
// Cholesky, plus Gaussian elimination, a recursive FFT butterfly and
// Laplace/stencil graphs as extensions. Node weights are proportional to
// the kernel's floating-point work; edge weights are proportional to the
// data volume transferred, scaled by `comm_scale` to sweep CCR.
#pragma once

#include "tgs/graph/task_graph.h"

namespace tgs {

/// Column-Cholesky: tasks cdiv(k) (factor column k) and cmod(j, k)
/// (update column j with column k), k < j <= N.
///   cdiv(k) -> cmod(j, k)        for all j > k (column k broadcast)
///   cmod(j, k) -> cmod(j, k+1)   for j > k + 1 (serialized updates)
///   cmod(k+1, k) -> cdiv(k+1)    (column k+1 complete)
/// v = N(N+1)/2 nodes.
TaskGraph cholesky_graph(int n, double comm_scale = 1.0);

/// Gaussian elimination (kji form): tasks piv(k) and upd(i, k) for
/// k < i <= N, with the same chaining pattern as Cholesky.
TaskGraph gaussian_elimination_graph(int n, double comm_scale = 1.0);

/// Radix-2 FFT butterfly: log2(n) rank layers of n/2 butterfly tasks;
/// each task feeds the two tasks using its outputs in the next rank.
/// n must be a power of two.
TaskGraph fft_graph(int n, double comm_scale = 1.0);

/// Jacobi/Laplace sweep over a side x side grid for `iters` iterations:
/// each point depends on its own and its neighbours' previous values.
TaskGraph laplace_graph(int side, int iters, double comm_scale = 1.0);

}  // namespace tgs
