(* Spans recorded by the traced run around the benchmark's calls into
   each layer: name, start, end, parent, and an optional count (bytes
   parsed, schedules simulated).  Kept in memory, written as JSON lines
   at exit.  Only the main domain records spans. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a top-level span *)
  start : float;
  stop : float;
  n : float;
}

let on = ref false
let recorded : t list ref = ref []
let next = ref 0
let current = ref (-1)

let add ?(n = 0.) name ~start ~stop =
  if !on then begin
    let id = !next in
    incr next;
    recorded := { id; name; parent = !current; start; stop; n } :: !recorded
  end

let with_ ?(n = 0.) name f =
  if not !on then f ()
  else begin
    let id = !next in
    incr next;
    let parent = !current in
    current := id;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        current := parent;
        recorded := { id; name; parent; start; stop; n } :: !recorded)
      f
  end

let named name = List.filter (fun s -> s.name = name) !recorded
let duration s = s.stop -. s.start
let total name = List.fold_left (fun a s -> a +. duration s) 0. (named name)
let count name = List.length (named name)
let sum_n name = List.fold_left (fun a s -> a +. s.n) 0. (named name)
let durations name = List.map duration (named name)

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"n\":%.17g}\n"
        s.id (Metrics.Json.escape s.name) s.start s.stop s.parent s.n)
    (List.rev !recorded);
  close_out oc
