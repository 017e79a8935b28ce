(* Counter/timer registry: registration (name -> id) is global and
   mutex-protected; the values are cells of the per-domain recorder's
   scope tree ([Recorder]), so two domains incrementing the same
   counter never race, and a snapshot is a sum over the tree. *)

type counter = { c_id : int; c_name : string }

type timer = { t_id : int; t_name : string }

let enabled () = Recorder.viewing Recorder.counters

let enable () = Recorder.set_view Recorder.counters true

let disable () = Recorder.set_view Recorder.counters false

(* Debug mode: unbalanced span exits raise instead of saturating. Off
   in release so production tracing can never throw. *)
let debug_on = Atomic.make false

let debug () = Atomic.get debug_on

let set_debug b = Atomic.set debug_on b

let set_clock = Recorder.set_clock

let now = Recorder.now

let reg_mutex = Mutex.create ()

let locked f =
  Mutex.lock reg_mutex;
  match f () with
  | v -> Mutex.unlock reg_mutex; v
  | exception e -> Mutex.unlock reg_mutex; raise e

(* Registration tables: name -> handle, plus the reverse list for
   snapshots. Ids are dense, assigned in registration order. *)
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter_list : counter list ref = ref []

let timers : (string, timer) Hashtbl.t = Hashtbl.create 16

let timer_list : timer list ref = ref []

let counter name =
  locked (fun () ->
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
      let c = { c_id = Hashtbl.length counters; c_name = name } in
      Hashtbl.replace counters name c;
      counter_list := c :: !counter_list;
      c)

let timer name =
  locked (fun () ->
    match Hashtbl.find_opt timers name with
    | Some t -> t
    | None ->
      let t = { t_id = Hashtbl.length timers; t_name = name } in
      Hashtbl.replace timers name t;
      timer_list := t :: !timer_list;
      t)

let incr c =
  if Atomic.get Recorder.views land Recorder.counters <> 0 then
    Recorder.count c.c_id 1

let add c n =
  if Atomic.get Recorder.views land Recorder.counters <> 0 then
    Recorder.count c.c_id n

let time t f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now () in
    let record () = Recorder.time t.t_id (now () -. t0) in
    match f () with
    | r -> record (); r
    | exception e -> record (); raise e
  end

let cell a id = if id < Array.length a then a.(id) else 0

let peek c =
  let v = ref 0 in
  Recorder.iter (fun n -> v := !v + cell n.Recorder.counts c.c_id)
    (Recorder.get ()).Recorder.root;
  !v

type timer_total = { seconds : float; activations : int }

type snapshot = {
  counters : (string * int) list;
  timers : (string * timer_total) list;
}

let snapshot () =
  let cl, tl = locked (fun () -> (!counter_list, !timer_list)) in
  let counts = Array.make (List.length cl) 0 in
  let secs = Array.make (List.length tl) 0. in
  let acts = Array.make (List.length tl) 0 in
  (* Cells grow past the registered count; the extra ones are zero. *)
  let sum add dst src =
    Array.iteri
      (fun i v -> if i < Array.length dst then dst.(i) <- add dst.(i) v)
      src
  in
  Recorder.iter
    (fun n ->
       sum ( + ) counts n.Recorder.counts;
       sum ( + ) acts n.Recorder.timer_acts;
       sum ( +. ) secs n.Recorder.timer_secs)
    (Recorder.get ()).Recorder.root;
  let by_name (a, _) (b, _) = compare (a : string) b in
  { counters =
      List.sort by_name (List.map (fun c -> (c.c_name, counts.(c.c_id))) cl);
    timers =
      List.sort by_name
        (List.map
           (fun t ->
              (t.t_name, { seconds = secs.(t.t_id); activations = acts.(t.t_id) }))
           tl) }

let reset = Recorder.reset

let find s name =
  match List.assoc_opt name s.counters with Some v -> v | None -> 0

let find_timer s name =
  match List.assoc_opt name s.timers with
  | Some v -> v
  | None -> { seconds = 0.0; activations = 0 }
