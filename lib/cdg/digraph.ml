(* Directed multigraph on the shared CSR adjacency pool. Traversals are
   iterative with explicit stacks — induced CDGs at 10k+ switches have
   millions of channels, far past the OS stack. *)

module Adjacency = Nue_structures.Adjacency

type t = Adjacency.t

let create = Adjacency.create

let num_vertices = Adjacency.num_vertices

let add_edge t u v = ignore (Adjacency.add t u v)

let remove_edge t u v =
  match Adjacency.remove t u v with
  | (_ : bool) -> ()
  | exception Invalid_argument _ ->
    invalid_arg "Digraph.remove_edge: absent edge"

let multiplicity = Adjacency.multiplicity

let mem_edge = Adjacency.mem

let num_edges = Adjacency.distinct_edges

let iter_succ = Adjacency.iter

(* Iterative 3-color DFS in ascending successor order: a back edge to a
   grey vertex identifies a cycle, reconstructed from the parent map.
   Successors are scanned in ascending id order (the CSR segments are
   sorted), so the reported cycle is deterministic. *)
let find_cycle t =
  let n = num_vertices t in
  let white = 0 and grey = 1 and black = 2 in
  let color = Array.make n white in
  let parent = Array.make n (-1) in
  let stack_v = Array.make (max n 1) 0 in
  let stack_i = Array.make (max n 1) 0 in
  let found = ref None in
  let root = ref 0 in
  while !found = None && !root < n do
    if color.(!root) = white then begin
      let sp = ref 0 in
      stack_v.(0) <- !root;
      stack_i.(0) <- 0;
      color.(!root) <- grey;
      while !found = None && !sp >= 0 do
        let u = stack_v.(!sp) in
        let i = stack_i.(!sp) in
        if i < Adjacency.degree t u then begin
          stack_i.(!sp) <- i + 1;
          let v = Adjacency.succ_ix t u i in
          if color.(v) = grey then begin
            (* Cycle: v -> ... -> u -> v; walk parents from u to v. *)
            let acc = ref [] in
            let x = ref u in
            while !x <> v do
              acc := !x :: !acc;
              x := parent.(!x)
            done;
            found := Some (v :: !acc)
          end
          else if color.(v) = white then begin
            parent.(v) <- u;
            color.(v) <- grey;
            incr sp;
            stack_v.(!sp) <- v;
            stack_i.(!sp) <- 0
          end
        end
        else begin
          color.(u) <- black;
          decr sp
        end
      done
    end;
    incr root
  done;
  ignore black;
  !found

let is_acyclic t = find_cycle t = None
