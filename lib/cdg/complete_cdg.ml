module Network = Nue_netgraph.Network
module Obs = Nue_obs.Obs
module Span = Nue_obs.Span

(* Section 4.6.1 effectiveness counters: the edge states memoize the
   acyclicity question, so "hits" are calls answered from stored state
   — (a) blocked, (b) already used — and "misses" are the calls the
   order had to decide, by a comparison or a bounded discovery. *)
let c_usable = Obs.counter "cdg.usable_calls"
let c_hit_blocked = Obs.counter "cdg.memo.hit_blocked"
let c_hit_used = Obs.counter "cdg.memo.hit_used"
let c_search = Obs.counter "cdg.memo.miss_search"
let c_visited = Obs.counter "cdg.search_visited"
let c_accept = Obs.counter "cdg.edges_accepted"
let c_reject = Obs.counter "cdg.edges_rejected"
let c_settled = Obs.counter "cdg.order_settled"
let c_reorder = Obs.counter "cdg.reorders"

(* Speculative-execution journal: the state-changing operations of one
   destination's search, recorded under a checkpoint and replayed onto
   the authoritative CDG at commit time (see [replay] below for the
   soundness argument). Ops are packed three ints at a time: tag
   ([op_admit] or [op_block]), then the edge's two channels. *)
type journal = {
  mutable ops : int array;
  mutable jlen : int; (* op count; 3 * jlen ints are live in [ops] *)
}

type t = {
  net : Network.t;
  (* The network's own endpoint and adjacency arrays, read in the hot
     loops instead of a call per element. *)
  srcs : int array;
  dsts : int array;
  outs : int array array;
  ins : int array array;
  (* Definition 6 makes the edges a function of the adjacency, so only
     their state is stored: edge c -> q at [off.(c) + pos.(q)], where
     [off] sums the out-degrees of the channels' head nodes and
     [pos.(q)] is q's index among its source's out-channels. Slots of
     180-degree turns (over any parallel link) are dead and stay
     [edge_unused]. *)
  off : int array;
  pos : int array;
  (* One byte per edge slot: [edge_unused], [edge_used] or
     [edge_blocked]. *)
  edges : Bytes.t;
  (* The rest of the routing state is the topological order: a
     permutation of [0, nc) with ord(c) < ord(q) for every used edge
     c -> q (Pearce & Kelly, JEA 2006). Undo-trail entries name a write
     in one index space: an index below [nslots] is an edge slot, any
     other is [ord.(index - nslots)]. *)
  ord : int array;
  nslots : int;
  nedges : int; (* live slots: |E| of Definition 6 *)
  mutable searches : int;
  (* Discovery scratch: visit stamps bumped by a clock (one value per
     discovery), the channels each direction discovered ([bwd] is also
     the forward discovery's stack), and the reorder's buckets by order
     position, all -1 between reorders. Each channel is stamped when
     listed, so no list holds more than nc ids. *)
  stamp : int array;
  mutable clock : int;
  fwd : int array;
  bwd : int array;
  pool : int array;
  (* Undo trail: (index, old value) pairs in the index space above,
     written only while a checkpoint is open. *)
  mutable trail : int array;
  mutable tlen : int; (* ints live in [trail] *)
  mutable recording : bool;
  mutable cp_searches : int;
  mutable journal : journal option;
}

(* Edge states, one byte per slot. *)
let edge_unused = '\000'
let edge_used = '\001'
let edge_blocked = '\002'

let create net =
  let nc = Network.num_channels net in
  let dsts = Network.dsts net in
  let off = Array.make (nc + 1) 0 in
  let pos = Array.make nc 0 in
  for c = 0 to nc - 1 do
    off.(c + 1) <- off.(c) + Network.degree net dsts.(c)
  done;
  (* Dead slots: each of an m-fold link's m channels u -> v has m
     180-degree slots, so node u adds its out-neighbours' squared
     multiplicities, counted from its out-channels. *)
  let dead = ref 0 in
  let mult = Array.make (Network.num_nodes net) 0 in
  for v = 0 to Network.num_nodes net - 1 do
    let out = Network.out_channels net v in
    for i = 0 to Array.length out - 1 do
      let x = dsts.(out.(i)) in
      pos.(out.(i)) <- i;
      dead := !dead + (2 * mult.(x)) + 1;
      mult.(x) <- mult.(x) + 1
    done;
    for i = 0 to Array.length out - 1 do
      mult.(dsts.(out.(i))) <- 0
    done
  done;
  let nslots = off.(nc) in
  { net; srcs = Network.srcs net; dsts; outs = Network.out_adjacency net;
    ins = Network.in_adjacency net;
    off; pos; edges = Bytes.make nslots edge_unused;
    ord = Array.init nc Fun.id; nslots; nedges = nslots - !dead;
    searches = 0;
    stamp = Array.make nc 0;
    clock = 0;
    fwd = Array.make nc 0;
    bwd = Array.make nc 0;
    pool = Array.make nc (-1);
    trail = Array.make 1024 0;
    tlen = 0;
    recording = false;
    cp_searches = 0;
    journal = None }

(* Replicas share the network and the layout and own everything a
   search writes: the state, and the search and trail scratch — shared
   scratch would race across domains. *)
let clone t =
  let nc = Array.length t.pos in
  { t with
    edges = Bytes.copy t.edges;
    ord = Array.copy t.ord;
    stamp = Array.make nc 0;
    clock = 0;
    fwd = Array.make nc 0;
    bwd = Array.make nc 0;
    pool = Array.make nc (-1);
    trail = Array.make 1024 0;
    tlen = 0;
    recording = false;
    journal = None }

(* Stamps and the clock stay [dst]'s own: they only need to be
   monotone per graph. *)
let copy_state_into ~src ~dst =
  if src.net != dst.net
     || Bytes.length src.edges <> Bytes.length dst.edges
     || Array.length src.ord <> Array.length dst.ord
  then invalid_arg "Complete_cdg.copy_state_into: graphs of different networks";
  if dst.recording then
    invalid_arg "Complete_cdg.copy_state_into: checkpoint open on dst";
  Bytes.blit src.edges 0 dst.edges 0 (Bytes.length src.edges);
  Array.blit src.ord 0 dst.ord 0 (Array.length src.ord);
  dst.searches <- src.searches

(* Every state write goes through [set_ord] or [set_edge]; while a
   checkpoint is open it first saves the old value on the trail. *)
let save t i old =
  let n = t.tlen in
  if n + 2 > Array.length t.trail then begin
    let bigger = Array.make (2 * Array.length t.trail) 0 in
    Array.blit t.trail 0 bigger 0 n;
    t.trail <- bigger
  end;
  t.trail.(n) <- i;
  t.trail.(n + 1) <- old;
  t.tlen <- n + 2

let[@inline] set_ord t c v =
  if t.recording then save t (t.nslots + c) t.ord.(c);
  t.ord.(c) <- v

let set_edge t e v =
  if t.recording then save t e (Char.code (Bytes.get t.edges e));
  Bytes.set t.edges e v

let checkpoint t =
  if t.recording then
    invalid_arg "Complete_cdg.checkpoint: a checkpoint is already open";
  t.recording <- true;
  t.tlen <- 0;
  t.cp_searches <- t.searches

let rollback t =
  if not t.recording then
    invalid_arg "Complete_cdg.rollback: no checkpoint is open";
  let tr = t.trail and ord = t.ord and ns = t.nslots in
  let i = ref t.tlen in
  while !i > 0 do
    i := !i - 2;
    let k = tr.(!i) and v = tr.(!i + 1) in
    if k < ns then Bytes.set t.edges k (Char.chr v) else ord.(k - ns) <- v
  done;
  t.tlen <- 0;
  t.recording <- false;
  t.searches <- t.cp_searches

let journal_create () = { ops = Array.make 96 0; jlen = 0 }

let journal_clear j = j.jlen <- 0

let set_journal t j = t.journal <- j

let op_admit = 0
let op_block = 1

(* Append an op to the attached journal, if any. *)
let record t tag ~from ~q =
  match t.journal with
  | None -> ()
  | Some j ->
    let base = 3 * j.jlen in
    if base + 3 > Array.length j.ops then begin
      let nops = Array.make (2 * Array.length j.ops) 0 in
      Array.blit j.ops 0 nops 0 base;
      j.ops <- nops
    end;
    j.ops.(base) <- tag;
    j.ops.(base + 1) <- from;
    j.ops.(base + 2) <- q;
    j.jlen <- j.jlen + 1

let network t = t.net

let num_channels t = Array.length t.pos

let num_edges t = t.nedges

let is_edge t ~from ~to_ =
  t.dsts.(from) = t.srcs.(to_) && t.dsts.(to_) <> t.srcs.(from)

(* Slot of the edge [from -> to_]. *)
let edge t ~from ~to_ =
  if not (is_edge t ~from ~to_) then
    invalid_arg
      (Printf.sprintf "Complete_cdg: %d -> %d is not a dependency" from to_);
  t.off.(from) + t.pos.(to_)

let iter_succ t c f =
  let u = t.srcs.(c) in
  Array.iter (fun q -> if t.dsts.(q) <> u then f q) t.outs.(t.dsts.(c))

let iter_pred t c f =
  let w = t.dsts.(c) in
  Array.iter (fun a -> if t.srcs.(a) <> w then f a) t.ins.(t.srcs.(c))

let edge_omega t ~from ~to_ =
  let s = Bytes.get t.edges (edge t ~from ~to_) in
  if s = edge_used then 1 else if s = edge_blocked then -1 else 0

let order t c = t.ord.(c)

(* The bounded discoveries of Pearce–Kelly. Both list the channels they
   reach in [fwd]/[bwd] (each expanded once), add the channels they
   expanded to [cdg.search_visited] once, and return how many they
   listed. The reorder reads the lists by order position, so the order
   they list in does not change the order.

   Forward from [q], depth-first: every channel reachable over used
   edges whose order is below [from]'s. A used path from [q] to [from]
   only climbs in the order, so it stays inside that bound; reaching
   [from] means the edge [from -> q] would close a cycle, reported
   after that row as minus the number of channels expanded (at least
   1). Most forward expansions are in discoveries that end in a cycle,
   and going deep reaches [from] sooner on random fabrics. The stack of
   listed channels not yet expanded lives in [bwd], which is free until
   the backward discovery. *)
let discover_forward t ~from ~q =
  t.clock <- t.clock + 1;
  let mark = t.clock in
  let ord = t.ord and ed = t.edges and stamp = t.stamp and fwd = t.fwd in
  let stack = t.bwd and outs = t.outs and dsts = t.dsts and off = t.off in
  let bound = ord.(from) in
  stamp.(q) <- mark;
  fwd.(0) <- q;
  stack.(0) <- q;
  let n = ref 1 and sp = ref 1 and expanded = ref 0 and cycle = ref false in
  while (not !cycle) && !sp > 0 do
    decr sp;
    let c = stack.(!sp) in
    incr expanded;
    (* Dead slots stay unused, so the used test alone skips 180-degree
       turns. The row holds one slot per entry of [s]. *)
    let s = outs.(dsts.(c)) and base = off.(c) in
    for k = 0 to Array.length s - 1 do
      if Bytes.unsafe_get ed (base + k) = edge_used then begin
        let y = s.(k) in
        if y = from then cycle := true
        else if ord.(y) < bound && stamp.(y) <> mark then begin
          stamp.(y) <- mark;
          fwd.(!n) <- y;
          incr n;
          stack.(!sp) <- y;
          incr sp
        end
      end
    done
  done;
  Obs.add c_visited !expanded;
  if !cycle then - !expanded else !n

(* Backward from [from]: every channel that reaches it over used edges
   and whose order is above [q]'s. *)
let discover_backward t ~from ~q =
  t.clock <- t.clock + 1;
  let mark = t.clock in
  let ord = t.ord and ed = t.edges and stamp = t.stamp and bwd = t.bwd in
  let ins = t.ins and srcs = t.srcs and off = t.off and pos = t.pos in
  let bound = ord.(q) in
  stamp.(from) <- mark;
  bwd.(0) <- from;
  let n = ref 1 and i = ref 0 in
  while !i < !n do
    let c = bwd.(!i) in
    incr i;
    (* Every a -> c sits at column pos(c) of a's row. *)
    let p = ins.(srcs.(c)) and pc = pos.(c) in
    for k = 0 to Array.length p - 1 do
      let a = p.(k) in
      if Bytes.unsafe_get ed (off.(a) + pc) = edge_used && ord.(a) > bound
         && stamp.(a) <> mark
      then begin
        stamp.(a) <- mark;
        bwd.(!n) <- a;
        incr n
      end
    done
  done;
  Obs.add c_visited !n;
  !n

(* Heapsort of [a.(0 .. n-1)] by order, in place, for the reorders
   that move too few channels to pay for a walk of their window. *)
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

let sort_by_order ord a n =
  for i = (n / 2) - 1 downto 0 do
    sift_down ord a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(last) in
    a.(last) <- a.(0);
    a.(0) <- x;
    sift_down ord a 0 last
  done

(* The size rule of [reorder]: walk the window when more than 16
   channels move and the window is at most 8 positions per channel;
   sort otherwise. *)
let reorders_by_window ~moved ~window = moved > 16 && window <= 8 * moved

(* Restore the order after a used edge [from -> q] with
   ord(from) > ord(q) was added, given the forward set of [q] in
   [fwd.(0 .. nf-1)] (Pearce & Kelly): the backward set of [from], then
   the forward set, each in its old relative order, take their old
   slots in ascending order. Every write is trailed.

   Both sets lie in the window [ord q, ord from], so one walk of it
   lists each set in its old relative order and the freed slots
   ascending, in O(moved + window) (Marchetti-Spaccamela, Nanni and
   Rohnert, 1996): the assignment of sorting both sets by order,
   without the O(moved log moved). A few channels in a wide window
   (the bench fat-tree's reorders move about 3 in ~1,700 positions)
   are sorted instead.
   Either way the slots end up ascending in [pool.(lo .. lo+n-1)],
   inside the window, and are cleared back to -1. *)
let reorder t ~from ~q ~nf =
  let nb = discover_backward t ~from ~q in
  let ord = t.ord and fwd = t.fwd and bwd = t.bwd and pool = t.pool in
  let lo = ord.(q) and n = nb + nf in
  if reorders_by_window ~moved:n ~window:(ord.(from) - lo + 1) then begin
    (* Bucket both sets by position, forward channels tagged by +nc. *)
    let nc = Array.length ord in
    for k = 0 to nb - 1 do
      pool.(ord.(bwd.(k))) <- bwd.(k)
    done;
    for k = 0 to nf - 1 do
      pool.(ord.(fwd.(k))) <- fwd.(k) + nc
    done;
    (* Walk the window, relisting each set in order and packing the
       freed positions into [pool.(lo ..)], behind the walk. *)
    let i = ref 0 and j = ref 0 in
    for p = lo to ord.(from) do
      let x = pool.(p) in
      if x >= 0 then begin
        pool.(p) <- -1;
        if x < nc then begin
          bwd.(!i) <- x;
          incr i
        end
        else begin
          fwd.(!j) <- x - nc;
          incr j
        end;
        pool.(lo + !i + !j - 1) <- p
      end
    done
  end
  else begin
    sort_by_order ord fwd nf;
    sort_by_order ord bwd nb;
    (* Both lists are sorted, so the slots are their merge. *)
    let i = ref 0 and j = ref 0 in
    for k = lo to lo + n - 1 do
      if !j >= nf || (!i < nb && ord.(bwd.(!i)) < ord.(fwd.(!j)))
      then begin
        pool.(k) <- ord.(bwd.(!i));
        incr i
      end
      else begin
        pool.(k) <- ord.(fwd.(!j));
        incr j
      end
    done
  end;
  for k = 0 to nb - 1 do
    set_ord t bwd.(k) pool.(lo + k)
  done;
  for k = 0 to nf - 1 do
    set_ord t fwd.(k) pool.(lo + nb + k)
  done;
  Array.fill pool lo n (-1);
  Obs.incr c_reorder

type verdict =
  | Blocked_memo
  | Used_memo
  | Search_acyclic
  | Search_cycle

let verdict_ok = function
  | Used_memo | Search_acyclic -> true
  | Blocked_memo | Search_cycle -> false

let verdict_condition = function
  | Blocked_memo -> 'a'
  | Used_memo -> 'b'
  | Search_acyclic | Search_cycle -> 'd'

let verdict_to_string = function
  | Blocked_memo -> "blocked-memo"
  | Used_memo -> "used-memo"
  | Search_acyclic -> "search-acyclic"
  | Search_cycle -> "search-cycle"

(* [discover_forward] in a span, one per discovery; the channels it
   expanded are the payload. *)
let discover_traced t ~from ~q =
  if not (Span.enabled ()) then discover_forward t ~from ~q
  else begin
    let span =
      Span.enter "cdg.forward_discovery"
        ~args:[ ("from", Span.Int from); ("to", Span.Int q) ]
    in
    let nf = discover_forward t ~from ~q in
    Span.exit span
      ~args:
        [ ("cycle_found", Span.Bool (nf < 0)); ("visited", Span.Int (abs nf)) ];
    nf
  end

(* Algorithm 3. An unused edge is decided from the order: it closes a
   cycle exactly when a used path leads from [q] back to [from], and
   every used path climbs in the order. Condition (c), an edge between
   two distinct used subgraphs, is one case of this: no used path joins
   them, so the edge either already goes forward or the discovery finds
   no way back. *)
let try_use_edge_v t ~from ~to_:q =
  let e = edge t ~from ~to_:q in
  Obs.incr c_usable;
  let state = Bytes.unsafe_get t.edges e in
  if state = edge_blocked then begin
    (* (a) known to close a cycle *)
    Obs.incr c_hit_blocked;
    Obs.incr c_reject;
    Blocked_memo
  end
  else if state = edge_used then begin
    (* (b) already used, already acyclic *)
    Obs.incr c_hit_used;
    Obs.incr c_accept;
    Used_memo
  end
  else begin
    (* (d): an edge that already goes forward is settled by the order,
       any other by the forward discovery. *)
    Obs.incr c_search;
    t.searches <- t.searches + 1;
    let ascending = t.ord.(from) < t.ord.(q) in
    let nf =
      if ascending then begin
        Obs.incr c_settled;
        0
      end
      else discover_traced t ~from ~q
    in
    if nf >= 0 then begin
      Obs.incr c_accept;
      set_edge t e edge_used;
      if not ascending then reorder t ~from ~q ~nf;
      record t op_admit ~from ~q;
      Search_acyclic
    end
    else begin
      Obs.incr c_reject;
      set_edge t e edge_blocked;
      record t op_block ~from ~q;
      Search_cycle
    end
  end

let try_use_edge t ~from ~to_ = verdict_ok (try_use_edge_v t ~from ~to_)

(* Removing an edge keeps every order valid, so only the byte moves. *)
let release t ~from ~to_ = set_edge t (edge t ~from ~to_) edge_unused

(* Replay a speculation's journal onto the authoritative graph. The
   speculation ran against snapshot + its own ops (on a replica, or on
   this graph under a checkpoint since rolled back); the real
   graph at replay time is snapshot + other destinations' committed
   ops + this journal's already-replayed prefix — a superset of what
   each op saw, where used state only ever grows.

   - Edge admissions go through the regular [try_use_edge]: an edge the
     speculation admitted may close a cycle against another
     destination's commits, in which case replay reports failure and
     the caller re-routes that destination sequentially. (A failed
     replay leaves its admitted prefix used, which is conservative but
     sound — the same stance as a failed [try_switch] in the search
     itself.)
   - Blocks are sound to replay directly: the speculative cycle's used
     edges were each either in the snapshot (still used — used state
     never reverts) or admitted earlier in this same journal (already
     replayed), so the cycle exists in the real graph too and the edge
     must stay out. By the same argument the blocked edge cannot be
     used in the real graph; finding it used means the prefix did not
     commit cleanly, so replay reports failure defensively. *)
let replay t j =
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < j.jlen do
    let base = 3 * !i in
    let a = j.ops.(base + 1) and b = j.ops.(base + 2) in
    if j.ops.(base) = op_admit then begin
      if not (try_use_edge t ~from:a ~to_:b) then ok := false
    end
    else begin
      let e = edge t ~from:a ~to_:b in
      let s = Bytes.get t.edges e in
      if s = edge_used then ok := false
      else if s = edge_unused then set_edge t e edge_blocked
    end;
    Stdlib.incr i
  done;
  !ok

(* Every used edge, row by row. *)
let iter_used t f =
  for c = 0 to num_channels t - 1 do
    let s = t.outs.(t.dsts.(c)) and base = t.off.(c) in
    for k = 0 to Array.length s - 1 do
      if Bytes.unsafe_get t.edges (base + k) = edge_used then f c s.(k)
    done
  done

let used_subgraph_acyclic t =
  let g = Digraph.create (num_channels t) in
  iter_used t (Digraph.add_edge g);
  Digraph.is_acyclic g

let count_states t ~used ~blocked ~unused =
  (* Dead slots stay unused: take them out of the unused count. *)
  unused := !unused - (t.nslots - t.nedges);
  for e = 0 to t.nslots - 1 do
    let s = Bytes.unsafe_get t.edges e in
    if s = edge_blocked then incr blocked
    else if s = edge_used then incr used
    else incr unused
  done

let cycle_searches t = t.searches

(* Graphviz rendering of the complete CDG with its routing state.
   Vertices are channels (labelled with their endpoints and their
   position in the order), edges are dependencies colored by state:
   gray dotted while unused, blue while used, red dashed once blocked.
   [escape] flags channels to draw double-bordered (the escape-path
   tree); [highlight_path] overlays one pair's channel sequence in
   orange, including the dependency edges between consecutive hops. *)
let to_dot ?(highlight_path = []) ?(escape = [||]) t =
  let nc = num_channels t in
  let on_path = Array.make nc false in
  List.iter
    (fun c -> if c >= 0 && c < nc then on_path.(c) <- true)
    highlight_path;
  let path_edge = Hashtbl.create 16 in
  let rec mark_path = function
    | c1 :: (c2 :: _ as rest) ->
      Hashtbl.replace path_edge (c1, c2) ();
      mark_path rest
    | _ -> []
  in
  ignore (mark_path highlight_path);
  let is_escape c = c < Array.length escape && escape.(c) in
  let used = Array.make nc false in
  iter_used t (fun c q ->
      used.(c) <- true;
      used.(q) <- true);
  let buf = Buffer.create (256 * (nc + 1)) in
  Buffer.add_string buf "digraph \"complete-cdg\" {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [fontsize=9];\n";
  for c = 0 to nc - 1 do
    let u = Network.src t.net c and v = Network.dst t.net c in
    let fill, fontcolor =
      if on_path.(c) then ("orange", "black")
      else if used.(c) then ("lightblue", "black")
      else ("white", "gray40")
    in
    let peripheries = if is_escape c then 2 else 1 in
    Buffer.add_string buf
      (Printf.sprintf
         "  c%d [label=\"c%d: %d-%d\\nord=%d\", shape=box, style=filled, \
          fillcolor=\"%s\", fontcolor=\"%s\", peripheries=%d];\n"
         c c u v t.ord.(c) fill fontcolor peripheries)
  done;
  for c = 0 to nc - 1 do
    iter_succ t c (fun q ->
        let attrs =
          if Hashtbl.mem path_edge (c, q) then
            "color=orange, penwidth=2.5"
          else
            match edge_omega t ~from:c ~to_:q with
            | -1 -> "color=red, style=dashed"
            | 0 -> "color=gray70, style=dotted"
            | _ -> "color=blue"
        in
        Buffer.add_string buf
          (Printf.sprintf "  c%d -> c%d [%s];\n" c q attrs))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
