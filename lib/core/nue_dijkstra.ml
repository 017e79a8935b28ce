module Network = Nue_netgraph.Network
module Complete_cdg = Nue_cdg.Complete_cdg
module Fib_heap = Nue_structures.Fib_heap
module Obs = Nue_obs.Obs
module Span = Nue_obs.Span

let c_fallbacks = Obs.counter "nue.escape_fallbacks"
let c_backtracks = Obs.counter "nue.backtracks"
let c_shortcuts = Obs.counter "nue.shortcuts"
let c_impasses = Obs.counter "nue.impasse_dests"
let c_dests = Obs.counter "nue.destinations_routed"

type stats = {
  mutable fallbacks : int;
  mutable backtracks : int;
  mutable shortcuts : int;
  mutable impasse_dests : int;
}

let fresh_stats () =
  { fallbacks = 0; backtracks = 0; shortcuts = 0; impasse_dests = 0 }

(* The working memory of one search, kept per domain and reset per
   destination so routing a destination leaves no major-heap garbage
   besides its returned row: the node-sized arrays, the heap and the
   cell its pops write their key into. *)
type scratch = {
  s_ndist : float array;
  s_tent : float array;
  s_routed : bool array;
  s_heap : Fib_heap.t;
  s_key : float array;
}

let create_scratch net =
  let nn = Network.num_nodes net in
  { s_ndist = Array.make nn infinity;
    s_tent = Array.make nn infinity;
    s_routed = Array.make nn false;
    s_heap = Fib_heap.create ();
    s_key = [| 0.0 |] }

type state = {
  cdg : Complete_cdg.t;
  net : Network.t;
  srcs : int array;         (* the network's own arrays *)
  ins : int array array;
  weights : float array;
  dest : int;
  ndist : float array;      (* node -> final distance to dest *)
  tent : float array;       (* node -> best tentative key so far *)
  used_channel : int array; (* node -> out-channel toward dest, -1 *)
  routed : bool array;
  heap : Fib_heap.t;
  key : float array;        (* the last pop's key *)
}

(* Algorithm 3 on the dependency [from -> to_]; both are channels, and
   a 180-degree turn is no dependency. When the provenance recorder is
   on, the same commit goes through the verdict-returning variant so the
   trail can say which of conditions (a)-(d) decided the edge; state
   mutations and counters are identical. *)
let edge_usable st ~from ~to_ =
  if not (Complete_cdg.is_edge st.cdg ~from ~to_) then begin
    if Provenance.enabled () then
      Provenance.record_check ~channel:from ~onto:to_ ~state_before:0
        Provenance.No_edge;
    false
  end
  else if Provenance.enabled () then begin
    let before = Complete_cdg.edge_omega st.cdg ~from ~to_ in
    let v = Complete_cdg.try_use_edge_v st.cdg ~from ~to_ in
    Provenance.record_check ~channel:from ~onto:to_ ~state_before:before
      (Provenance.Cdg_edge v);
    Complete_cdg.verdict_ok v
  end
  else Complete_cdg.try_use_edge st.cdg ~from ~to_

(* Expand a freshly routed node [n]: offer every in-channel a = (x, n)
   whose key improves x's tentative distance (the relaxation condition
   of Algorithm 1 line 13) and whose dependency onto n's used channel
   keeps the CDG acyclic. Channels into the destination carry no onward
   dependency. *)
let expand st n =
  let e = st.used_channel.(n) in
  let inc = st.ins.(n) in
  for i = 0 to Array.length inc - 1 do
    let a = inc.(i) in
    let x = st.srcs.(a) in
    if not st.routed.(x) then begin
      let key = st.ndist.(n) +. st.weights.(a) in
      if key < st.tent.(x) then begin
        let usable =
          if n = st.dest then begin
            if Provenance.enabled () then
              Provenance.record_check ~channel:a ~onto:(-1) ~state_before:0
                Provenance.Into_destination;
            true
          end
          else edge_usable st ~from:a ~to_:e
        in
        if usable then begin
          st.tent.(x) <- key;
          Fib_heap.insert st.heap ~key a
        end
      end
    end
  done

(* Route [node] over [channel] at the distance already in [ndist]; a
   float argument would be boxed on every call. *)
let finalize ?(via = Provenance.Dijkstra) st node ~channel =
  if Provenance.enabled () then
    Provenance.record_finalize ~node ~channel ~dist:st.ndist.(node) ~via;
  st.routed.(node) <- true;
  st.used_channel.(node) <- channel;
  expand st node

(* Main Dijkstra loop: pop candidate channels in key order; the first
   pop routing a node fixes that node, later pops are stale. *)
let drain st =
  let c = ref (Fib_heap.extract_min st.heap st.key) in
  while !c >= 0 do
    let x = st.srcs.(!c) in
    if not st.routed.(x) then begin
      st.ndist.(x) <- st.key.(0);
      finalize st x ~channel:!c
    end;
    c := Fib_heap.extract_min st.heap st.key
  done

(* Switch node [m]'s route to alternative out-channel [a] (Sections
   4.6.2/4.6.3). Valid only if (a) the dependency from [a] onto the next
   node's used channel holds, and (b) every upstream node that routes
   through [m] *in the current routing step* keeps a cycle-checked
   dependency against [a] (the paper restricts the check to dependencies
   "calculated in the current routing step": other destinations'
   forwarding through [m] is untouched by a per-destination switch).
   Commits used/blocked edge states as it tests — a failed switch leaves
   extra used edges behind, which is conservative but sound. *)
let try_switch ?(via = Provenance.Switch) st m ~to_channel:a =
  let x = Network.dst st.net a in
  st.routed.(x)
  && (x = st.dest || edge_usable st ~from:a ~to_:(st.used_channel.(x)))
  && begin
    let inc = Network.in_channels st.net m in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < Array.length inc do
      let f = inc.(!i) in
      incr i;
      let y = Network.src st.net f in
      (* y routes through m toward the current destination. *)
      if st.routed.(y) && st.used_channel.(y) = f then
        if not (edge_usable st ~from:f ~to_:a) then ok := false
    done;
    if !ok then begin
      st.used_channel.(m) <- a;
      st.ndist.(m) <- st.ndist.(x) +. st.weights.(a);
      if Provenance.enabled () then
        Provenance.record_finalize ~node:m ~channel:a ~dist:st.ndist.(m)
          ~via;
      true
    end
    else false
  end

(* Try to route island node [w]: first a direct retry against each
   routed neighbor's current channel, then by switching a neighbor to
   one of its alternative out-channels (local backtracking with the
   2-hop lookaround of Section 4.6.2). Candidates are tried cheapest
   first. *)
let solve_island st w =
  let adj = Network.out_channels st.net w in
  let candidates = ref [] in
  Array.iter
    (fun c ->
       let m = Network.dst st.net c in
       if st.routed.(m) then begin
         let direct = st.ndist.(m) +. st.weights.(c) in
         candidates := (direct, c, None) :: !candidates;
         if m <> st.dest then
           (* Alternative continuations of m. *)
           Array.iter
             (fun a ->
                if a <> st.used_channel.(m) then begin
                  let x = Network.dst st.net a in
                  if
                    st.routed.(x) && x <> w
                    && Complete_cdg.is_edge st.cdg ~from:c ~to_:a
                  then begin
                    let d =
                      st.ndist.(x) +. st.weights.(a) +. st.weights.(c)
                    in
                    candidates := (d, c, Some a) :: !candidates
                  end
                end)
             (Network.out_channels st.net m)
       end)
    adj;
  let sorted =
    List.sort (fun (d1, _, _) (d2, _, _) -> compare d1 d2) !candidates
  in
  let rec attempt = function
    | [] -> false
    | (dist, c, switch) :: rest ->
      let m = Network.dst st.net c in
      let committed =
        match switch with
        | None ->
          m = st.dest || edge_usable st ~from:c ~to_:(st.used_channel.(m))
        | Some a ->
          (* The island depends on c -> a; check it is not already
             doomed before disturbing m. *)
          Complete_cdg.edge_omega st.cdg ~from:c ~to_:a <> -1
          && try_switch st m ~to_channel:a
          && edge_usable st ~from:c ~to_:a
      in
      if committed then begin
        st.ndist.(w) <- dist;
        finalize ~via:Provenance.Backtrack st w ~channel:c;
        true
      end
      else attempt rest
  in
  attempt sorted

(* After an island is fixed, it may shorten already-routed neighbors
   (Section 4.6.3): re-route x through w when that is strictly shorter
   and x's local dependencies survive the change. *)
let apply_shortcuts st w stats =
  let inc = Network.in_channels st.net w in
  for i = 0 to Array.length inc - 1 do
    let g = inc.(i) in
    let x = Network.src st.net g in
    if
      st.routed.(x) && x <> st.dest
      && st.ndist.(w) +. st.weights.(g) < st.ndist.(x)
    then
      if try_switch ~via:Provenance.Shortcut st x ~to_channel:g then begin
        stats.shortcuts <- stats.shortcuts + 1;
        Obs.incr c_shortcuts
      end
  done

let fall_back_to_escape st escape =
  let next = Escape.next_toward escape ~dest:st.dest in
  let nn = Network.num_nodes st.net in
  for node = 0 to nn - 1 do
    if node <> st.dest then begin
      st.used_channel.(node) <- next.(node);
      st.routed.(node) <- next.(node) >= 0
    end
  done

let route_destination cdg ~escape ~weights ~dest ?(use_backtracking = true)
    ?(use_shortcuts = true) ?scratch ~stats () =
  let net = Complete_cdg.network cdg in
  let nn = Network.num_nodes net in
  let sc =
    match scratch with
    | None -> create_scratch net
    | Some sc ->
      if Array.length sc.s_routed <> nn then
        invalid_arg "Nue_dijkstra.route_destination: scratch of another size";
      Array.fill sc.s_ndist 0 nn infinity;
      Array.fill sc.s_tent 0 nn infinity;
      Array.fill sc.s_routed 0 nn false;
      (* A search that raised may have left entries behind. *)
      Fib_heap.clear sc.s_heap;
      sc
  in
  let st =
    { cdg; net; srcs = Network.srcs net; ins = Network.in_adjacency net;
      weights; dest;
      ndist = sc.s_ndist;
      tent = sc.s_tent;
      used_channel = Array.make nn (-1);
      routed = sc.s_routed;
      heap = sc.s_heap;
      key = sc.s_key }
  in
  st.routed.(dest) <- true;
  st.ndist.(dest) <- 0.0;
  st.tent.(dest) <- 0.0;
  expand st dest;
  drain st;
  let islands () =
    let acc = ref [] in
    for n = nn - 1 downto 0 do
      if not st.routed.(n) then acc := n :: !acc
    done;
    !acc
  in
  Obs.incr c_dests;
  let remaining = ref (islands ()) in
  if !remaining <> [] then begin
    stats.impasse_dests <- stats.impasse_dests + 1;
    Obs.incr c_impasses;
    if Provenance.enabled () then
      Provenance.record_impasse ~islands:(List.length !remaining);
    if Span.enabled () then
      Span.instant "nue.impasse"
        ~args:
          [ ("dest", Span.Int dest);
            ("islands", Span.Int (List.length !remaining)) ];
    if use_backtracking then begin
      let progress = ref true in
      while !remaining <> [] && !progress do
        progress := false;
        List.iter
          (fun w ->
             if (not st.routed.(w)) && solve_island st w then begin
               stats.backtracks <- stats.backtracks + 1;
               Obs.incr c_backtracks;
               if Span.enabled () then
                 Span.instant "nue.backtrack"
                   ~args:
                     [ ("dest", Span.Int dest); ("island", Span.Int w) ];
               if use_shortcuts then apply_shortcuts st w stats;
               (* The island may unlock further nodes via the normal
                  search. *)
               drain st;
               progress := true
             end)
          !remaining;
        remaining := islands ()
      done
    end;
    if !remaining <> [] then begin
      stats.fallbacks <- stats.fallbacks + 1;
      Obs.incr c_fallbacks;
      if Provenance.enabled () then
        Provenance.record_escape_fallback
          ~unsolved:(List.length !remaining);
      if Span.enabled () then
        Span.instant "nue.escape_fallback"
          ~args:
            [ ("dest", Span.Int dest);
              ("unsolved_islands", Span.Int (List.length !remaining)) ];
      fall_back_to_escape st escape
    end
  end;
  st.used_channel
