(* Test-only reference for the kept topological order: Pearce & Kelly's
   dynamic order (JEA 2006) with the reorder as {!Nue_cdg.Complete_cdg}
   once did it for every admission, heapsorting both discovered sets by
   order and merging their old slots. The library walks the order
   window instead when that is cheaper; the property in test_cdg.ml
   holds the two to the same order and the same verdicts. The used
   edges live in two plain digraphs, and the discoveries are plain
   breadth-first searches: a set is defined by reachability and the
   order, so the order it is listed in does not matter once sorted. *)

module Digraph = Nue_cdg.Digraph

type t = {
  ord : int array;
  succ : Digraph.t; (* the used edges *)
  pred : Digraph.t; (* the used edges, reversed *)
  blocked : (int * int, unit) Hashtbl.t;
}

let create nc =
  { ord = Array.init nc Fun.id;
    succ = Digraph.create nc;
    pred = Digraph.create nc;
    blocked = Hashtbl.create 16 }

let order t = Array.copy t.ord

let copy_digraph g =
  let n = Digraph.num_vertices g in
  let h = Digraph.create n in
  for c = 0 to n - 1 do
    Digraph.iter_succ g c (fun q -> Digraph.add_edge h c q)
  done;
  h

(* A snapshot: what a checkpoint restores on rollback. *)
let copy t =
  { ord = Array.copy t.ord;
    succ = copy_digraph t.succ;
    pred = copy_digraph t.pred;
    blocked = Hashtbl.copy t.blocked }

(* Breadth-first from [start] over [g], into channels [keep] accepts;
   [None] as soon as [stop] is reached. *)
let discover g ~start ~keep ~stop =
  let seen = Hashtbl.create 16 in
  let queue = Queue.create () and found = ref [ start ] and cycle = ref false in
  Hashtbl.replace seen start ();
  Queue.add start queue;
  while (not !cycle) && not (Queue.is_empty queue) do
    Digraph.iter_succ g (Queue.pop queue) (fun y ->
        if y = stop then cycle := true
        else if keep y && not (Hashtbl.mem seen y) then begin
          Hashtbl.replace seen y ();
          found := y :: !found;
          Queue.add y queue
        end)
  done;
  if !cycle then None else Some (Array.of_list !found)

(* Heapsort of [a] by order, in place. *)
let sift_down ord a i n =
  let x = a.(i) in
  let kx = ord.(x) in
  let i = ref i and go = ref true in
  while !go do
    let l = (2 * !i) + 1 in
    if l >= n then go := false
    else begin
      let c =
        if l + 1 < n && ord.(a.(l + 1)) > ord.(a.(l)) then l + 1 else l
      in
      if ord.(a.(c)) > kx then begin
        a.(!i) <- a.(c);
        i := c
      end
      else go := false
    end
  done;
  a.(!i) <- x

let sort_by_order ord a =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift_down ord a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(last) in
    a.(last) <- a.(0);
    a.(0) <- x;
    sift_down ord a 0 last
  done

(* The backward set, then the forward set, each sorted by order, take
   the merge of their old slots. *)
let reorder t ~bwd ~fwd =
  let ord = t.ord in
  sort_by_order ord fwd;
  sort_by_order ord bwd;
  let nb = Array.length bwd and nf = Array.length fwd in
  let pool = Array.make (nb + nf) 0 in
  let i = ref 0 and j = ref 0 in
  for k = 0 to nb + nf - 1 do
    if !j >= nf || (!i < nb && ord.(bwd.(!i)) < ord.(fwd.(!j))) then begin
      pool.(k) <- ord.(bwd.(!i));
      incr i
    end
    else begin
      pool.(k) <- ord.(fwd.(!j));
      incr j
    end
  done;
  Array.iteri (fun k c -> ord.(c) <- pool.(k)) bwd;
  Array.iteri (fun k c -> ord.(c) <- pool.(nb + k)) fwd

(* Algorithm 3 on [from -> to_], decided from the order: whether the
   edge is admitted, and, for an admission against the order, how many
   channels moved in how wide a window of it. *)
let try_use_edge t ~from ~to_:q =
  if Hashtbl.mem t.blocked (from, q) then (false, None)
  else if Digraph.mem_edge t.succ from q then (true, None)
  else begin
    let ord = t.ord in
    let admit () =
      Digraph.add_edge t.succ from q;
      Digraph.add_edge t.pred q from
    in
    if ord.(from) < ord.(q) then begin
      admit ();
      (true, None)
    end
    else
      match
        discover t.succ ~start:q ~stop:from
          ~keep:(fun y -> ord.(y) < ord.(from))
      with
      | None ->
        Hashtbl.replace t.blocked (from, q) ();
        (false, None)
      | Some fwd ->
        let bwd =
          Option.get
            (discover t.pred ~start:from ~stop:(-1)
               ~keep:(fun a -> ord.(a) > ord.(q)))
        in
        let window = ord.(from) - ord.(q) + 1 in
        admit ();
        reorder t ~bwd ~fwd;
        (true, Some (Array.length bwd + Array.length fwd, window))
  end

(* Replay a speculation's decisions, in order: an admission must still
   be admitted, and a block stands unless the edge has become used.
   [false] at the first decision that no longer holds; the prefix stays
   applied. *)
let replay t ops =
  List.for_all
    (fun (from, to_, admitted) ->
       if admitted then fst (try_use_edge t ~from ~to_)
       else if Digraph.mem_edge t.succ from to_ then false
       else begin
         Hashtbl.replace t.blocked (from, to_) ();
         true
       end)
    ops
