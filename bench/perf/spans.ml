(* Harness-side span recorder for the traced run.

   Spans are opened and closed by the benchmark's own code around calls
   into the library's public entry points; nothing here reads the
   library's Obs/Span/Profile state. Spans stay in memory until the run
   ends and are then written as Chrome trace-event JSON. Everything runs
   on the main domain, so word counts are exact while the library runs
   with one job. *)

module Json = Nue_pipeline.Json

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Words allocated by this domain so far: minor allocations plus the
   large blocks that go straight to the major heap. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

type span = {
  id : int;
  parent : int;  (* 0 for a root span *)
  name : string;
  rep : int;
  start : float;
  stop : float;
  words : float;
}

type t = {
  workload : string;
  origin : float;
  mutable current_rep : int;
  mutable next_id : int;
  mutable open_ids : int list;
  mutable closed : span list;  (* newest first *)
}

let create ~workload =
  { workload; origin = now (); current_rep = 0; next_id = 1; open_ids = [];
    closed = [] }

let set_rep t rep = t.current_rep <- rep

let with_ t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ids with p :: _ -> p | [] -> 0 in
  t.open_ids <- id :: t.open_ids;
  let w0 = words () in
  let start = now () in
  let finish () =
    let stop = now () in
    let w = words () -. w0 in
    t.open_ids <- List.tl t.open_ids;
    t.closed <-
      { id; parent; name; rep = t.current_rep; start; stop; words = w } :: t.closed
  in
  Fun.protect ~finally:finish f

let spans t = List.rev t.closed

let duration s = s.stop -. s.start

(* Direct children of every span, keyed by parent id. *)
let children_index spans =
  let h = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add h s.parent s) spans;
  fun id -> Hashtbl.find_all h id

(* Self time: the span's duration minus the part its children cover.
   Children are sequential and nested (checked by [check]), so the
   covered part is the sum of their durations. *)
let self_time children s =
  duration s -. List.fold_left (fun acc c -> acc +. duration c) 0.0 (children s.id)

(* Share of each named span's duration that its children cover; the
   minimum over every span of that name. 1.0 when no span has it. *)
let coverage spans ~name =
  let children = children_index spans in
  List.fold_left
    (fun acc s ->
       if s.name <> name || duration s <= 0.0 then acc
       else Float.min acc (1.0 -. (self_time children s /. duration s)))
    1.0 spans

(* {1 Chrome trace-event output} *)

let to_json t =
  let us x = Json.Float ((x -. t.origin) *. 1e6) in
  let event s =
    Json.Obj
      [ ("name", Json.Str s.name);
        ("cat", Json.Str "perf");
        ("ph", Json.Str "X");
        ("ts", us s.start);
        ("dur", Json.Float (duration s *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args",
         Json.Obj
           [ ("id", Json.Int s.id);
             ("parent", Json.Int s.parent);
             ("workload", Json.Str t.workload);
             ("rep", Json.Int s.rep);
             ("alloc_words", Json.Float s.words) ]) ]
  in
  Json.Obj
    [ ("traceEvents", Json.List (List.map event (spans t)));
      ("displayTimeUnit", Json.Str "ms") ]

(* Parse a rendered span file back and check it: every event carries the
   fields above, ids are unique, every parent exists, each child lies
   inside its parent, and siblings do not overlap. Returns the event
   count. Times are compared with a 0.01 us slack for decimal rounding. *)
let check text =
  let slack = 0.01 in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match Json.of_string text with
  | exception Json.Parse_error m -> fail "span file does not parse: %s" m
  | json ->
    let num k o = Option.bind (Json.member k o) Json.to_float_opt in
    let parse_event o =
      let args = Json.member "args" o in
      let arg k = Option.bind args (num k) in
      match (Json.member "name" o, num "ts" o, num "dur" o, arg "id",
             arg "parent", arg "rep",
             Option.bind args (Json.member "workload")) with
      | Some (Json.Str name), Some ts, Some dur, Some id, Some parent,
        Some _, Some (Json.Str _) ->
        Some (name, ts, ts +. dur, int_of_float id, int_of_float parent)
      | _ -> None
    in
    match Json.member "traceEvents" json with
    | Some (Json.List events) ->
      let parsed = List.filter_map parse_event events in
      if List.length parsed <> List.length events then
        fail "an event lacks name/ts/dur/args.{id,parent,workload,rep}"
      else begin
        let by_id = Hashtbl.create 1024 in
        let dup = ref None in
        List.iter
          (fun ((_, _, _, id, _) as e) ->
             if Hashtbl.mem by_id id then dup := Some id;
             Hashtbl.replace by_id id e)
          parsed;
        let kids = Hashtbl.create 1024 in
        List.iter (fun ((_, _, _, _, p) as e) -> Hashtbl.add kids p e) parsed;
        let problem = ref None in
        let note m = if !problem = None then problem := Some m in
        List.iter
          (fun (name, ts, stop, id, parent) ->
             if stop < ts then note (Printf.sprintf "span %d (%s) ends before it starts" id name);
             if parent <> 0 then
               match Hashtbl.find_opt by_id parent with
               | None -> note (Printf.sprintf "span %d (%s) has unknown parent %d" id name parent)
               | Some (pname, pts, pstop, _, _) ->
                 if ts < pts -. slack || stop > pstop +. slack then
                   note (Printf.sprintf "span %d (%s) escapes parent %d (%s)" id name parent pname))
          parsed;
        List.iter
          (fun parent ->
             let sorted =
               List.sort (fun (_, a, _, _, _) (_, b, _, _, _) -> compare a b)
                 (Hashtbl.find_all kids parent)
             in
             let rec scan = function
               | (n1, _, stop1, _, _) :: ((n2, ts2, _, _, _) :: _ as rest) ->
                 if ts2 < stop1 -. slack then
                   note (Printf.sprintf "siblings %s and %s overlap" n1 n2);
                 scan rest
               | _ -> ()
             in
             scan sorted)
          (List.sort_uniq compare (List.of_seq (Hashtbl.to_seq_keys kids)));
        match (!dup, !problem) with
        | Some id, _ -> fail "duplicate span id %d" id
        | None, Some m -> fail "%s" m
        | None, None -> Ok (List.length parsed)
      end
    | _ -> fail "span file has no traceEvents list"
