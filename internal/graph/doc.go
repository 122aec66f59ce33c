// Package graph implements the directed-graph algorithms used for circuit
// analysis over one compressed-sparse-row digraph: breadth-first stage
// distances (with unit weights, the Dijkstra search the paper names for
// stage counting), strongly connected components, transitive reachability
// counts by bitset closure over the condensation, shortest cycles, and
// topological sorting (used to levelize netlists for simulation).
//
// Nodes are dense integer IDs in [0, Order()); callers map their own entities
// (cells, flip-flops, ports) onto IDs.
package graph
