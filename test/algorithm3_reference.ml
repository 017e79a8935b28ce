(* Test-only reference for Algorithm 3 as Section 4.6.1 states it: every
   used channel carries an omega, the id of the acyclic used subgraph it
   belongs to, kept in a union-find forest. Condition (c), an edge
   between two distinct subgraphs (or a fresh channel), merges them
   without a search; condition (d), an edge inside one subgraph, asks a
   plain breadth-first search over the used edges whether a path leads
   back. The library decides (c) and (d) from one kept topological order
   ({!Nue_cdg.Complete_cdg}); the property in test_cdg.ml holds it to
   this. *)

module Network = Nue_netgraph.Network
module Digraph = Nue_cdg.Digraph

type t = {
  net : Network.t;
  used : Digraph.t;
  blocked : (int * int, unit) Hashtbl.t;
  omega : int array; (* per channel: 0 unused, else a subgraph id *)
  parent : int array; (* union-find over the ids 1 .. nc *)
  mutable next_id : int;
}

let create net =
  let nc = Network.num_channels net in
  { net;
    used = Digraph.create nc;
    blocked = Hashtbl.create 16;
    omega = Array.make nc 0;
    parent = Array.init (nc + 1) Fun.id;
    next_id = 1 }

(* A snapshot: what a checkpoint restores on rollback. *)
let copy t =
  let nc = Array.length t.omega in
  let used = Digraph.create nc in
  for c = 0 to nc - 1 do
    Digraph.iter_succ t.used c (fun q -> Digraph.add_edge used c q)
  done;
  { t with
    used;
    blocked = Hashtbl.copy t.blocked;
    omega = Array.copy t.omega;
    parent = Array.copy t.parent }

let rec find t id = if t.parent.(id) = id then id else find t t.parent.(id)

(* The channel's canonical subgraph id, a fresh one if it was unused. *)
let use_channel t c =
  if t.omega.(c) = 0 then begin
    t.omega.(c) <- t.next_id;
    t.next_id <- t.next_id + 1
  end;
  find t t.omega.(c)

let omega t c = if t.omega.(c) = 0 then 0 else find t t.omega.(c)

let reaches t ~start ~target =
  let seen = Array.make (Array.length t.omega) false in
  let queue = Queue.create () in
  seen.(start) <- true;
  Queue.add start queue;
  let found = ref (start = target) in
  while (not !found) && not (Queue.is_empty queue) do
    Digraph.iter_succ t.used (Queue.pop queue) (fun q ->
        if not seen.(q) then begin
          if q = target then found := true;
          seen.(q) <- true;
          Queue.add q queue
        end)
  done;
  !found

(* Algorithm 3 on [from -> to_]: whether the edge is admitted, and the
   condition ('a' to 'd') that decided it. *)
let try_use_edge t ~from ~to_ =
  if Hashtbl.mem t.blocked (from, to_) then (false, 'a')
  else if Digraph.mem_edge t.used from to_ then (true, 'b')
  else begin
    let om_p = omega t from and om_q = omega t to_ in
    if om_p = 0 || om_q = 0 || om_p <> om_q then begin
      let a = use_channel t from and b = use_channel t to_ in
      if a <> b then t.parent.(b) <- a;
      Digraph.add_edge t.used from to_;
      (true, 'c')
    end
    else if reaches t ~start:to_ ~target:from then begin
      Hashtbl.replace t.blocked (from, to_) ();
      (false, 'd')
    end
    else begin
      Digraph.add_edge t.used from to_;
      (true, 'd')
    end
  end

(* Replay a speculation's decisions, in order, onto the graph they are
   committed to: an admission must still be admitted, and a block
   stands unless the edge has become used. [false] at the first
   decision that no longer holds; the prefix stays applied. *)
let replay t ops =
  List.for_all
    (fun (from, to_, admitted) ->
       if admitted then fst (try_use_edge t ~from ~to_)
       else if Digraph.mem_edge t.used from to_ then false
       else begin
         Hashtbl.replace t.blocked (from, to_) ();
         true
       end)
    ops

(* The used and the blocked edges, each sorted. *)
let edge_sets t =
  let used = ref [] in
  for c = Array.length t.omega - 1 downto 0 do
    Digraph.iter_succ t.used c (fun q -> used := (c, q) :: !used)
  done;
  ( List.sort compare !used,
    List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) t.blocked []) )
