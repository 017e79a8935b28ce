(** Static-acyclic-CDG routing: the strawman Nue improves upon
    (Section 3; Cherkasova et al.'s observation, BSOR's random edge
    deletion).

    The complete channel dependency graph is made acyclic {e before}
    routing by keeping only dependencies that go upward in a fixed
    random ranking of the channels; shortest paths are then computed
    inside that restricted graph. Deadlock-freedom is trivial, but the
    a-priori restriction regularly disconnects node pairs — the impasse
    problem that motivates Nue's escape paths and incremental
    restriction placement. *)

val route :
  ?seed:int -> ?dests:int array -> Nue_netgraph.Network.t -> Table.t
(** The restricted shortest-path table: the next channels of nodes the
    restricted CDG cannot serve stay -1. Always deadlock-free; connected
    only when {!Verify.check} finds no unreachable pair. *)
