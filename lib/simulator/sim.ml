module Network = Nue_netgraph.Network
module Table = Nue_routing.Table
module Obs = Nue_obs.Obs
module Span = Nue_obs.Span
module Histogram = Nue_metrics.Histogram

let c_flits = Obs.counter "sim.flit_transmits"
let c_delivered = Obs.counter "sim.packets_delivered"
let c_cycles = Obs.counter "sim.cycles"
let c_deadlocks = Obs.counter "sim.deadlocks"
let c_samples = Obs.counter "sim.telemetry_samples"
let c_dropped = Obs.counter "sim.packets_dropped"
let c_arbitrations = Obs.counter "sim.arbitrations"

type config = {
  buffer_flits : int;
  link_latency : int;
  flit_bytes : int;
  mtu_bytes : int;
  link_gbs : float;
  max_cycles : int;
  watchdog : int;
  injection_rate : float;
}

let default_config =
  { buffer_flits = 8;
    link_latency = 1;
    flit_bytes = 64;
    mtu_bytes = 2048;
    link_gbs = 4.0;
    max_cycles = 10_000_000;
    watchdog = 20_000;
    injection_rate = 1.0 }

type outcome = {
  delivered_packets : int;
  total_packets : int;
  delivered_bytes : int;
  dropped_packets : int;
  cycles : int;
  deadlock : bool;
  aggregate_gbs : float;
  avg_packet_latency : float;
  latency_p50 : float;
  latency_p95 : float;
  latency_p99 : float;
  latency_max : float;
}

(* {1 Telemetry} *)

type telemetry_config = {
  sample_every : int;
  max_samples : int;
  latency_bins : int;
}

let default_telemetry =
  { sample_every = 64; max_samples = 256; latency_bins = 32 }

type sample = {
  at_cycle : int;
  link_occupancy : int array;
  vl_occupancy : int array;
}

type telemetry = {
  sample_every : int;
  samples : sample array;
  dropped_samples : int;
  vls : int;
  unit_occupancy_sum : int array;
  unit_occupancy_peak : int array;
  occupancy_samples : int;
  link_transmits : int array;
  link_utilization : float array;
  peak_link_utilization : float;
  peak_link : int;
  latency : Histogram.t;
  deadlock_wait_cycle : (int * int) list;
}

(* {1 Live reconfiguration (table swaps)} *)

type swap = {
  at_cycle : int;
  table : Nue_routing.Table.t;
  staged : bool;
}

type swap_record = {
  swap_at : int;
  activated_at : int;
  in_flight_packets : int;
  in_flight_flits : int;
  drained_at : int;
}

(* A packet's route: channel and VL per hop, assigned from the table
   active at injection time ([hops] is [||] until then), so a table
   swapped mid-run only steers packets injected afterwards — packets in
   flight finish on their old route, which is exactly the old/new
   coexistence the union-CDG transition check certifies safe. *)
type packet = {
  p_src : int;
  p_dst : int;
  bytes : int;
  flits : int;
  mutable hops : int array;
  mutable hop_vl : int array;
  mutable injected : int;
  mutable inject_cycle : int;
  mutable generation : int;  (** table activations seen when injected *)
}

(* Checks that a route the simulator is about to follow stays on VLs the
   buffers exist for. Routes come from [Table.path_with_vls], which stops
   at a hop that does not leave its node, so a route is already
   continuous: its first hop leaves the source and every later hop leaves
   the node the previous one entered. The hot loop relies on both. *)
let check_route ~vls hops_vls =
  List.iter
    (fun (_, v) ->
       if v < 0 || v >= vls then
         invalid_arg "Sim.run: path VL outside the table's VL range")
    hops_vls

(* Index of the lowest set bit of a nonzero int. *)
let lowest_bit x =
  let b = ref 0 and x = ref x in
  if !x land 0xFFFF_FFFF = 0 then (b := 32; x := !x lsr 32);
  if !x land 0xFFFF = 0 then (b := !b + 16; x := !x lsr 16);
  if !x land 0xFF = 0 then (b := !b + 8; x := !x lsr 8);
  if !x land 0xF = 0 then (b := !b + 4; x := !x lsr 4);
  if !x land 0x3 = 0 then (b := !b + 2; x := !x lsr 2);
  if !x land 0x1 = 0 then !b + 1 else !b

let validate_telemetry fn (t : telemetry_config) =
  if t.sample_every < 1 then invalid_arg (fn ^ ": sample_every must be >= 1");
  if t.max_samples < 1 then invalid_arg (fn ^ ": max_samples must be >= 1");
  if t.latency_bins < 1 then invalid_arg (fn ^ ": latency_bins must be >= 1")

let run_impl ~(config : config) ~(telem : telemetry_config option)
    ~(swaps : swap list) (table : Table.t) ~traffic =
  if not (config.injection_rate > 0.0 && config.injection_rate <= 1.0) then
    invalid_arg "Sim.run: injection_rate must be in (0, 1]";
  let net = table.Table.net in
  let nc = Network.num_channels net in
  let nn = Network.num_nodes net in
  let swaps = List.sort (fun a b -> compare a.at_cycle b.at_cycle) swaps in
  List.iter
    (fun s ->
       if Network.num_channels s.table.Table.net <> nc
          || Network.num_nodes s.table.Table.net <> nn
       then
         invalid_arg
           "Sim.run_with_swaps: swap table is not on the same network")
    swaps;
  (* Buffer/credit state is sized for the largest VL range any of the
     tables (initial or swapped-in) may use. *)
  let vls =
    List.fold_left
      (fun acc (s : swap) -> max acc s.table.Table.num_vls)
      (max 1 table.Table.num_vls) swaps
  in
  let flits_of_bytes b = (b + config.flit_bytes - 1) / config.flit_bytes in
  (* The tick-stamped setup phase (packet splitting, queue and credit
     state construction) is a span of its own, so profiling separates
     its allocation from the cycle-stamped [sim.run] loop. *)
  let setup_span = Span.enter "sim.setup" in
  (* Split messages into MTU packets; the initial table must route every
     pair (same contract as the static entry points). *)
  let packets = ref [] in
  List.iter
    (fun { Traffic.src; dst; bytes } ->
       if not (Network.is_terminal net src && Network.is_terminal net dst)
       then invalid_arg "Sim.run: traffic endpoints must be terminals";
       (match Table.path_with_vls table ~src ~dest:dst with
        | Some hops_vls -> check_route ~vls hops_vls
        | None -> invalid_arg "Sim.run: unrouted source-destination pair");
       let remaining = ref bytes in
       while !remaining > 0 do
         let chunk = min !remaining config.mtu_bytes in
         remaining := !remaining - chunk;
         packets :=
           { p_src = src; p_dst = dst; bytes = chunk;
             flits = flits_of_bytes chunk; hops = [||]; hop_vl = [||];
             injected = 0; inject_cycle = -1; generation = 0 }
           :: !packets
       done)
    traffic;
  let packets = Array.of_list (List.rev !packets) in
  let total_packets = Array.length packets in
  (* Flit encoding: packet id, hop index and tail flag in one int. The
     hop index is the flit's position on its packet's route — the route
     index of the channel it was last sent on. A route visits each node
     at most once ([Table.path] cuts loops), so it has fewer than [nn]
     hops and never repeats a channel. *)
  let hop_bits =
    let rec bits b = if 1 lsl b >= nn then b else bits (b + 1) in
    bits 0
  in
  let hop_mask = (1 lsl hop_bits) - 1 in
  let encode pid hop tail =
    (((pid lsl hop_bits) lor hop) lsl 1) lor Bool.to_int tail
  in
  let flit_pid flit = flit lsr (hop_bits + 1) in
  let flit_hop flit = (flit lsr 1) land hop_mask in
  (* Per-node injection queues: the packet ids of each source node, in
     id order, laid out contiguously; [inj_next] is each node's cursor
     and [inj_end] one past its last packet. *)
  let inj_end = Array.make nn 0 in
  Array.iter (fun p -> inj_end.(p.p_src) <- inj_end.(p.p_src) + 1) packets;
  for n = 1 to nn - 1 do
    inj_end.(n) <- inj_end.(n) + inj_end.(n - 1)
  done;
  let inj_next =
    Array.init nn (fun n -> if n = 0 then 0 else inj_end.(n - 1))
  in
  let inj_pids = Array.make total_packets 0 in
  let fill = Array.copy inj_next in
  Array.iteri
    (fun pid p ->
       inj_pids.(fill.(p.p_src)) <- pid;
       fill.(p.p_src) <- fill.(p.p_src) + 1)
    packets;
  (* Receive-side FIFO, sender-side credit counter and wormhole owner,
     one each per (channel, vl) unit. Credits bound a unit's buffered
     plus on-wire flits by [buffer_flits], so each FIFO is a fixed ring
     of that depth in one flat array. *)
  let unit_id c vl = (c * vls) + vl in
  let nu = nc * vls in
  let depth = max 0 config.buffer_flits in
  let fifo = Array.make (nu * depth) 0 in
  let fifo_head = Array.make nu 0 in
  let fifo_len = Array.make nu 0 in
  let credits = Array.make nu config.buffer_flits in
  let owner = Array.make nu (-1) in
  (* Head-request cache: the output unit the head flit of each unit asks
     for (-1 when the unit is empty), and per output channel the units
     asking for it, as an intrusive doubly linked list ([req_first] per
     channel, [req_next]/[req_prev] per unit, -1 terminated). Both
     change only when a unit's head changes, so arbitration touches only
     requesting heads, and an output nobody requests costs one read. *)
  let req = Array.make nu (-1) in
  let req_first = Array.make nc (-1) in
  let req_next = Array.make nu (-1) in
  let req_prev = Array.make nu (-1) in
  (* Each unit's place in its receiving node's round-robin order: input
     channels in [Network.in_channels] order, VLs within each. *)
  let arb_pos = Array.make nu 0 in
  for n = 0 to nn - 1 do
    Array.iteri
      (fun i ci ->
         for vl = 0 to vls - 1 do
           arb_pos.(unit_id ci vl) <- (i * vls) + vl
         done)
      (Network.in_channels net n)
  done;
  (* What the cycle loop asks of the network, read from arrays: [Network]
     is compiled opaquely, so its accessors are calls. *)
  let ch_src = Array.init nc (Network.src net) in
  let to_terminal =
    Array.init nc (fun c -> Network.is_terminal net (Network.dst net c))
  in
  let node_units =
    Array.init nn (fun n -> Array.length (Network.in_channels net n) * vls)
  in
  (* Wake-up arbitration: one bit per channel, set while the channel's
     arbitration could go differently from its last failed one. A channel
     that neither transmits nor drops a packet (both wake it again)
     sleeps until one of the events that decide its verdict happens: a
     unit's new head flit requests it, a credit returns to one of its
     units, its terminal's token bucket fills, or a table is activated.
     Its output units' owners change only when it transmits, and a staged
     swap's request only pauses injection, which unblocks nothing. *)
  let word_bits = Sys.int_size in
  let awake = Array.make ((nc + word_bits - 1) / word_bits) 0 in
  let wake c =
    let w = c / word_bits in
    awake.(w) <- awake.(w) lor (1 lsl (c mod word_bits))
  in
  let wake_all () =
    for c = 0 to nc - 1 do
      wake c
    done
  in
  wake_all ();
  (* The link pipe: (landing cycle, unit, flit) triples in a ring. Link
     latency is constant, so send order is landing order. Each channel
     sends at most one flit per cycle and a flit lands [link_latency]
     cycles later, and every flit on a wire holds a credit, so the pipe
     never holds more than either bound. *)
  let pipe_cap = nc * min (max 0 config.link_latency + 1) (vls * depth) in
  let pipe = Array.make (3 * pipe_cap) 0 in
  let pipe_head = ref 0 in
  let pipe_len = ref 0 in
  let delivered_packets = ref 0 in
  let delivered_bytes = ref 0 in
  let dropped_packets = ref 0 in
  let cycle = ref 0 in
  let last_movement = ref 0 in
  (* Live-reconfiguration state: the active table, how many activations
     have happened (stamped on packets as their generation), and how
     many injected packets are still undelivered. *)
  let active = ref table in
  let activations = ref 0 in
  let in_flight = ref 0 in
  let swap_arr = Array.of_list swaps in
  let nswaps = Array.length swap_arr in
  let records =
    Array.init nswaps (fun i ->
        { swap_at = swap_arr.(i).at_cycle; activated_at = -1;
          in_flight_packets = 0; in_flight_flits = 0; drained_at = -1 })
  in
  let pending = Array.make nswaps 0 in
  let next_swap = ref 0 in
  let draining = ref false in
  let moved = ref false in
  (* Packet latencies in delivery order. *)
  let latencies = Array.make total_packets 0 in
  let latency_sum = ref 0 in
  let latency_max = ref 0 in
  (* Flits moved per channel, for link utilization (each link carries at
     most one flit per cycle, so transmits / cycles is in [0, 1]). *)
  let link_tx = Array.make nc 0 in
  (* Telemetry ring buffer: overwrites the oldest sample past
     [max_samples], so a long run keeps its most recent window. *)
  let ring =
    match telem with
    | None -> [||]
    | Some t -> Array.make t.max_samples None
  in
  let ring_written = ref 0 in
  (* Per-(channel, VL) occupancy accumulators: unlike the ring, these
     cover every sample ever taken, so congestion attribution sees the
     whole run even when the ring wrapped. *)
  let unit_occ_sum = if telem = None then [||] else Array.make nu 0 in
  let unit_occ_peak = if telem = None then [||] else Array.make nu 0 in
  (* Injection throttling: a per-node token bucket capped at one token,
     refilled by [injection_rate] tokens per cycle; each injected flit
     spends one. At rate 1.0 the gate is compiled out, keeping the
     full-load path byte-identical to an unthrottled run. *)
  let throttled = config.injection_rate < 1.0 in
  let tokens = if throttled then Array.make nn 0.0 else [||] in
  (* The channels of the sources whose bucket is below one token. Only
     these refill: a full bucket would stay at exactly 1.0, and one is
     spent only when full, so it drops to 0.0 and rejoins. A terminal
     has exactly one out-channel. *)
  let filling = Array.make (if throttled then nn else 0) 0 in
  let n_filling = ref 0 in
  if throttled then
    for n = 0 to nn - 1 do
      if inj_next.(n) < inj_end.(n) then begin
        filling.(!n_filling) <- (Network.out_channels net n).(0);
        incr n_filling
      end
    done;
  Span.exit setup_span;
  (* Deterministic timeline for span events: while the simulator runs,
     span stamps are simulation cycles, offset so they extend the tick
     timeline monotonically. *)
  let spans_on = Span.enabled () in
  let span_base = if spans_on then Span.now () + 1 else 0 in
  if spans_on then Span.set_clock (fun () -> span_base + !cycle);
  let sim_span =
    if spans_on then
      Span.enter "sim.run"
        ~args:
          [ ("packets", Span.Int total_packets);
            ("channels", Span.Int nc);
            ("vls", Span.Int vls) ]
    else Span.null_handle
  in
  let take_sample () =
    let link_occupancy = Array.make nc 0 in
    let vl_occupancy = Array.make vls 0 in
    for c = 0 to nc - 1 do
      for vl = 0 to vls - 1 do
        let u = unit_id c vl in
        let q = fifo_len.(u) in
        link_occupancy.(c) <- link_occupancy.(c) + q;
        vl_occupancy.(vl) <- vl_occupancy.(vl) + q;
        unit_occ_sum.(u) <- unit_occ_sum.(u) + q;
        if q > unit_occ_peak.(u) then unit_occ_peak.(u) <- q
      done
    done;
    ring.(!ring_written mod Array.length ring) <-
      Some { at_cycle = !cycle; link_occupancy; vl_occupancy };
    ring_written := !ring_written + 1;
    Obs.incr c_samples;
    if spans_on then begin
      let total = Array.fold_left ( + ) 0 vl_occupancy in
      let peak = Array.fold_left max 0 link_occupancy in
      Span.counter "sim.buffered_flits" [ ("total", Span.Int total) ];
      Span.counter "sim.peak_link_occupancy" [ ("flits", Span.Int peak) ];
      Span.counter "sim.vl_occupancy"
        (Array.to_list
           (Array.mapi
              (fun vl q -> ("vl" ^ string_of_int vl, Span.Int q))
              vl_occupancy))
    end
  in
  (* {2 Swap bookkeeping} *)
  let buffered_flits_total () = Array.fold_left ( + ) 0 fifo_len + !pipe_len in
  (* Stamp what the swap disrupts at request time: the packets (and
     their flits) already committed to the pre-swap table. *)
  let request_swap k =
    records.(k) <-
      { records.(k) with
        in_flight_packets = !in_flight;
        in_flight_flits = buffered_flits_total () };
    pending.(k) <- !in_flight;
    if !in_flight = 0 then
      records.(k) <- { records.(k) with drained_at = !cycle }
  in
  let activate_swap k =
    active := swap_arr.(k).table;
    incr activations;
    wake_all ();
    records.(k) <- { records.(k) with activated_at = !cycle };
    if spans_on then
      Span.instant "sim.swap"
        ~args:
          [ ("index", Span.Int k);
            ("staged", Span.Bool swap_arr.(k).staged);
            ("in_flight", Span.Int records.(k).in_flight_packets) ]
  in
  (* Activate due swaps: a direct swap takes effect at its cycle; a
     staged one first drains the fabric (injection pauses, in-flight
     packets finish on their old routes), then activates — the drain is
     the conservative fallback for transitions the union-CDG check could
     not prove deadlock-free. *)
  let process_swaps () =
    if !next_swap < nswaps then begin
      if !draining then begin
        if !in_flight = 0 then begin
          activate_swap !next_swap;
          incr next_swap;
          draining := false
        end
      end
      else begin
        let s = swap_arr.(!next_swap) in
        if !cycle >= s.at_cycle then begin
          request_swap !next_swap;
          if s.staged then draining := true
          else begin
            activate_swap !next_swap;
            incr next_swap
          end
        end
      end
    end
  in
  (* A delivered packet may complete the drain window of any swap that
     was requested while it was in flight. *)
  let note_delivery p =
    let hi = if !draining then !next_swap else !next_swap - 1 in
    for k = 0 to min hi (nswaps - 1) do
      if records.(k).drained_at < 0 && p.generation <= k then begin
        pending.(k) <- pending.(k) - 1;
        if pending.(k) = 0 then
          records.(k) <- { records.(k) with drained_at = !cycle }
      end
    done
  in
  (* {2 Unit FIFOs} *)
  let head_flit u = fifo.((u * depth) + fifo_head.(u)) in
  (* Record what the (new) head flit of [u] requests: the next hop of
     its route. A buffered flit sits on a switch, so its route goes on. *)
  let set_head_request u =
    if fifo_len.(u) = 0 then req.(u) <- -1
    else begin
      let flit = head_flit u in
      let p = packets.(flit_pid flit) in
      let h = flit_hop flit + 1 in
      let o = p.hops.(h) in
      req.(u) <- unit_id o p.hop_vl.(h);
      let first = req_first.(o) in
      req_prev.(u) <- -1;
      req_next.(u) <- first;
      if first >= 0 then req_prev.(first) <- u;
      req_first.(o) <- u;
      wake o
    end
  in
  let fifo_push u flit =
    let n = fifo_len.(u) in
    let slot = fifo_head.(u) + n in
    let slot = if slot >= depth then slot - depth else slot in
    fifo.((u * depth) + slot) <- flit;
    fifo_len.(u) <- n + 1;
    if n = 0 then set_head_request u
  in
  let fifo_pop u =
    let prev = req_prev.(u) and next = req_next.(u) in
    if prev >= 0 then req_next.(prev) <- next
    else req_first.(req.(u) / vls) <- next;
    if next >= 0 then req_prev.(next) <- prev;
    let h = fifo_head.(u) + 1 in
    fifo_head.(u) <- (if h = depth then 0 else h);
    fifo_len.(u) <- fifo_len.(u) - 1;
    set_head_request u
  in
  let transmit c u flit =
    Obs.incr c_flits;
    link_tx.(c) <- link_tx.(c) + 1;
    credits.(u) <- credits.(u) - 1;
    owner.(u) <- (if flit land 1 = 1 then -1 else flit_pid flit);
    assert (!pipe_len < pipe_cap);
    let slot = !pipe_head + !pipe_len in
    let slot = if slot >= pipe_cap then slot - pipe_cap else slot in
    pipe.(3 * slot) <- !cycle + config.link_latency;
    pipe.((3 * slot) + 1) <- u;
    pipe.((3 * slot) + 2) <- flit;
    incr pipe_len;
    moved := true;
    wake c
  in
  (* Assign a packet its route from the active table on first contact.
     A pair the active table no longer routes (transient churn states)
     is dropped rather than left to clog the injection queue. *)
  let route_packet pid =
    let p = packets.(pid) in
    if Array.length p.hops > 0 then true
    else begin
      match
        Table.path_with_vls !active ~src:p.p_src ~dest:p.p_dst
      with
      | exception Invalid_argument _ -> false
      | None -> false
      | Some hops_vls ->
        check_route ~vls hops_vls;
        p.hops <- Array.of_list (List.map fst hops_vls);
        p.hop_vl <- Array.of_list (List.map snd hops_vls);
        Array.length p.hops > 0
    end
  in
  (* A terminal has exactly one out-channel, the first hop of every
     route it sources, so injected flits start at hop 0. *)
  let try_inject c u_node =
    inj_next.(u_node) < inj_end.(u_node)
    && (not throttled || tokens.(u_node) >= 1.0)
    && begin
      let pid = inj_pids.(inj_next.(u_node)) in
      let p = packets.(pid) in
      (* A drain pauses new packets only: one already partially injected
         must finish, or its in-network head would wait forever for a
         tail the drain is holding back. *)
      if !draining && p.injected = 0 then false
      else if p.injected = 0 && not (route_packet pid) then begin
        inj_next.(u_node) <- inj_next.(u_node) + 1;
        incr dropped_packets;
        wake c;
        Obs.incr c_dropped;
        if spans_on then
          Span.counter "sim.packets_dropped"
            [ ("dropped", Span.Int !dropped_packets) ];
        false
      end
      else begin
        let u = unit_id c p.hop_vl.(0) in
        let own = owner.(u) in
        if (own = -1 || own = pid) && credits.(u) > 0 then begin
          if p.inject_cycle < 0 then begin
            p.inject_cycle <- !cycle;
            p.generation <- !activations;
            incr in_flight
          end;
          p.injected <- p.injected + 1;
          let tail = p.injected = p.flits in
          transmit c u (encode pid 0 tail);
          if throttled then begin
            tokens.(u_node) <- tokens.(u_node) -. 1.0;
            filling.(!n_filling) <- c;
            incr n_filling
          end;
          if tail then inj_next.(u_node) <- inj_next.(u_node) + 1;
          true
        end
        else false
      end
    end
  in
  (* Round-robin over the node's input units, rotating with the cycle
     count so no unit is structurally starved: the winner is the
     requester of [c] nearest after the rotating start that the output
     unit accepts (wormhole owner and credit). *)
  let try_forward c u_node =
    req_first.(c) >= 0
    && begin
      let n_units = node_units.(u_node) in
      let start = (!cycle + c) mod n_units in
      let best = ref (-1) in
      let best_dist = ref n_units in
      let u = ref req_first.(c) in
      while !u >= 0 do
        let v = !u in
        let dist = arb_pos.(v) - start in
        let dist = if dist < 0 then dist + n_units else dist in
        if dist < !best_dist then begin
          let out = req.(v) in
          let own = owner.(out) in
          if (own = -1 || own = flit_pid (head_flit v)) && credits.(out) > 0
          then begin
            best := v;
            best_dist := dist
          end
        end;
        u := req_next.(v)
      done;
      let v = !best in
      v >= 0
      && begin
        let flit = head_flit v in
        let out = req.(v) in
        fifo_pop v;
        credits.(v) <- credits.(v) + 1;
        wake (v / vls);
        transmit c out
          (encode (flit_pid flit) (flit_hop flit + 1) (flit land 1 = 1));
        true
      end
    end
  in
  let arbitrate_channel c =
    let u_node = ch_src.(c) in
    if req_first.(c) >= 0 || inj_next.(u_node) < inj_end.(u_node) then begin
      (* Alternate injection/through priority so neither starves. *)
      if !cycle land 1 = 0 then begin
        if not (try_inject c u_node) then ignore (try_forward c u_node)
      end
      else if not (try_forward c u_node) then ignore (try_inject c u_node)
    end
  in
  let deliver flit =
    if flit land 1 = 1 then begin
      let p = packets.(flit_pid flit) in
      Obs.incr c_delivered;
      let lat = !cycle - p.inject_cycle in
      latencies.(!delivered_packets) <- lat;
      incr delivered_packets;
      delivered_bytes := !delivered_bytes + p.bytes;
      decr in_flight;
      note_delivery p;
      latency_sum := !latency_sum + lat;
      if lat > !latency_max then latency_max := lat
    end
  in
  (* Deadlock attribution: the wait-for graph over (channel, VL) units.
     A unit whose head flit still has hops to go waits for its next-hop
     unit; the deadlocked units form a cycle in that graph (classic
     wormhole circular wait). Returns the cycle, oldest-first, or [] if
     the stall is not a circular wait (e.g. an injection livelock). *)
  let find_wait_cycle () =
    (* 0 = unvisited, 1 = on the current walk, 2 = finished. *)
    let state = Array.make nu 0 in
    let cycle_units = ref [] in
    let u = ref 0 in
    while !cycle_units = [] && !u < nu do
      if state.(!u) = 0 then begin
        let path = ref [] in
        let v = ref !u in
        while !v >= 0 && state.(!v) = 0 do
          state.(!v) <- 1;
          path := !v :: !path;
          v := req.(!v)
        done;
        if !v >= 0 && state.(!v) = 1 then begin
          (* Walked back into the current path: cut the cycle out. *)
          let rec collect acc = function
            | [] -> acc
            | x :: rest ->
              if x = !v then x :: acc else collect (x :: acc) rest
          in
          cycle_units := collect [] !path
        end;
        List.iter (fun x -> state.(x) <- 2) !path
      end;
      incr u
    done;
    List.map (fun unit -> (unit / vls, unit mod vls)) !cycle_units
  in
  let deadlocked = ref false in
  let arbitrations = ref 0 in
  while
    !delivered_packets + !dropped_packets < total_packets
    && (not !deadlocked)
    && !cycle < config.max_cycles
  do
    moved := false;
    if throttled then begin
      let i = ref 0 in
      while !i < !n_filling do
        let c = filling.(!i) in
        let n = ch_src.(c) in
        let t = tokens.(n) +. config.injection_rate in
        (* Full: cap at exactly one token and leave the list. *)
        if t >= 1.0 then begin
          tokens.(n) <- 1.0;
          wake c;
          decr n_filling;
          filling.(!i) <- filling.(!n_filling)
        end
        else begin
          tokens.(n) <- t;
          incr i
        end
      done
    end;
    process_swaps ();
    (* Awake channels in ascending order, as a sweep of every channel
       would visit them. The word is re-read after each arbitration, so a
       channel woken above the current one still arbitrates this cycle;
       one woken below it already had its turn and waits for the next. *)
    for w = 0 to Array.length awake - 1 do
      let b = ref 0 in
      while !b < word_bits && awake.(w) lsr !b <> 0 do
        let bit = !b + lowest_bit (awake.(w) lsr !b) in
        awake.(w) <- awake.(w) land lnot (1 lsl bit);
        incr arbitrations;
        arbitrate_channel ((w * word_bits) + bit);
        b := bit + 1
      done
    done;
    (* Land flits whose wire time elapsed. *)
    while !pipe_len > 0 && pipe.(3 * !pipe_head) <= !cycle do
      let u = pipe.((3 * !pipe_head) + 1) in
      let flit = pipe.((3 * !pipe_head) + 2) in
      pipe_head := (if !pipe_head + 1 = pipe_cap then 0 else !pipe_head + 1);
      decr pipe_len;
      let c = u / vls in
      if to_terminal.(c) then begin
        credits.(u) <- credits.(u) + 1;
        wake c;
        deliver flit
      end
      else fifo_push u flit
    done;
    (match telem with
     | Some t when !cycle mod t.sample_every = 0 -> take_sample ()
     | _ -> ());
    if !moved then last_movement := !cycle;
    if !cycle - !last_movement > config.watchdog then deadlocked := true;
    incr cycle
  done;
  let wait_cycle = if !deadlocked then find_wait_cycle () else [] in
  let cycles = max 1 !cycle in
  Obs.add c_cycles cycles;
  Obs.add c_arbitrations !arbitrations;
  if !deadlocked then begin
    Obs.incr c_deadlocks;
    if spans_on then
      Span.instant "sim.deadlock"
        ~args:
          (( "last_movement", Span.Int !last_movement )
           :: ("blocked_units", Span.Int (List.length wait_cycle))
           :: List.concat_map
                (fun (c, vl) ->
                   [ ("channel", Span.Int c); ("vl", Span.Int vl) ])
                wait_cycle)
  end;
  if spans_on then begin
    Span.exit sim_span
      ~args:
        [ ("cycles", Span.Int cycles);
          ("delivered", Span.Int !delivered_packets);
          ("dropped", Span.Int !dropped_packets);
          ("deadlock", Span.Bool !deadlocked) ];
    Span.use_tick_clock ()
  end;
  (* One flit per cycle per link at [link_gbs] implies the cycle time. *)
  let seconds =
    float_of_int cycles *. float_of_int config.flit_bytes
    /. (config.link_gbs *. 1e9)
  in
  (* Packet latencies all flow through one histogram, so every consumer
     (sim outcome, telemetry, bench) reports identical percentiles. *)
  let bins =
    match telem with Some t -> t.latency_bins | None -> default_telemetry.latency_bins
  in
  let hist =
    Histogram.of_int_samples ~bins
      (List.init !delivered_packets (fun i -> latencies.(i)))
  in
  let pct q =
    if !delivered_packets = 0 then 0.0 else Histogram.percentile hist q
  in
  let outcome =
    { delivered_packets = !delivered_packets;
      total_packets;
      delivered_bytes = !delivered_bytes;
      dropped_packets = !dropped_packets;
      cycles;
      deadlock = !deadlocked;
      aggregate_gbs = float_of_int !delivered_bytes /. 1e9 /. seconds;
      avg_packet_latency =
        (if !delivered_packets = 0 then 0.0
         else float_of_int !latency_sum /. float_of_int !delivered_packets);
      latency_p50 = pct 0.50;
      latency_p95 = pct 0.95;
      latency_p99 = pct 0.99;
      latency_max = float_of_int !latency_max }
  in
  let telemetry =
    match telem with
    | None -> None
    | Some t ->
      let nslots = Array.length ring in
      let kept = min !ring_written nslots in
      let oldest = !ring_written - kept in
      let samples =
        Array.init kept (fun i ->
            match ring.((oldest + i) mod nslots) with
            | Some s -> s
            | None -> assert false)
      in
      let link_utilization =
        Array.map (fun tx -> float_of_int tx /. float_of_int cycles) link_tx
      in
      let peak_link = ref 0 in
      Array.iteri
        (fun c u ->
           if u > link_utilization.(!peak_link) then peak_link := c)
        link_utilization;
      Some
        { sample_every = t.sample_every;
          samples;
          dropped_samples = !ring_written - kept;
          vls;
          unit_occupancy_sum = unit_occ_sum;
          unit_occupancy_peak = unit_occ_peak;
          occupancy_samples = !ring_written;
          link_transmits = link_tx;
          link_utilization;
          peak_link_utilization = link_utilization.(!peak_link);
          peak_link = !peak_link;
          latency = hist;
          deadlock_wait_cycle = wait_cycle }
  in
  (outcome, telemetry, Array.to_list records)

let run ?(config = default_config) table ~traffic =
  let o, _, _ = run_impl ~config ~telem:None ~swaps:[] table ~traffic in
  o

let run_with_telemetry ?(config = default_config)
    ?(telemetry = default_telemetry) table ~traffic =
  validate_telemetry "Sim.run_with_telemetry" telemetry;
  match run_impl ~config ~telem:(Some telemetry) ~swaps:[] table ~traffic with
  | o, Some t, _ -> (o, t)
  | _, None, _ -> assert false

let run_with_swaps ?(config = default_config)
    ?telemetry:(telem : telemetry_config option) table ~swaps ~traffic =
  Option.iter (validate_telemetry "Sim.run_with_swaps") telem;
  run_impl ~config ~telem ~swaps table ~traffic
