(* In-memory span recorder for traced runs.

   Spans are recorded by the benchmark around its calls into each layer,
   never inside the program. Each has a name, start and end (wall clock),
   the span that was open when it started, and a request id (the program,
   session or experiment it served; -1 for none). All spans are recorded
   from the main domain, so one stack of open spans is enough. While
   recording is off, [with_] is just [f ()]. *)

type t = {
  id : int;
  parent : int;  (* -1 for a root *)
  name : string;
  req : int;
  start : float;
  stop : float;
}

let on = ref false
let next_id = ref 0
let open_ids : int list ref = ref []
let finished : t list ref = ref []

let start () =
  next_id := 0;
  open_ids := [];
  finished := [];
  on := true

(* Stop recording; returns the spans in start order. *)
let stop () =
  on := false;
  List.sort (fun a b -> compare a.id b.id) !finished

let with_ ?(req = -1) name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        open_ids := List.tl !open_ids;
        finished :=
          { id; parent; name; req; start; stop = Unix.gettimeofday () }
          :: !finished)
      f
  end

let duration s = s.stop -. s.start

(* Total and self time per span name, sorted by name. A span's self time is
   its duration minus the durations of its direct children. *)
let by_name spans =
  let child = Hashtbl.create 256 in
  let covered id = Option.value ~default:0.0 (Hashtbl.find_opt child id) in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent (duration s +. covered s.parent))
    spans;
  let agg = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = duration s -. covered s.id in
      let n, tot, slf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt agg s.name)
      in
      Hashtbl.replace agg s.name (n + 1, tot +. duration s, slf +. self))
    spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) agg []
  |> List.sort compare

let to_json ~workload spans =
  let module J = Obs.Json in
  let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
  J.Obj
    [ ("workload", J.String workload);
      ("time_unit", J.String "s since first span");
      ( "spans",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [ ("id", J.Int s.id);
                   ("parent", J.Int s.parent);
                   ("name", J.String s.name);
                   ("req", J.Int s.req);
                   ("start", J.Float (s.start -. t0));
                   ("end", J.Float (s.stop -. t0)) ])
             spans) ) ]
