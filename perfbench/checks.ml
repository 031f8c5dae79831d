(* Output checks.  Each one compares against an independent computation
   or a required property, never against saved output, and returns the
   problems it found (empty when the output passes). *)

(* One visit's run time from the schedule's shape: the kernel repeats
   every II cycles for [trip - 1] iterations after the first has run
   its [ceil (length / II)] stages. *)
let formula_cycles ~trip ~length ~ii = (trip - 1 + ((length + ii - 1) / ii)) * ii

let schedule_length (s : Sched.Schedule.t) =
  Array.fold_left max (-1) s.Sched.Schedule.cycles + 1

type checked = {
  cycles : int;  (** formula cycles of one visit *)
  at_mii : bool;  (** II equals the MII lower bound: proven minimal *)
  problems : string list;
}

(* A final schedule of [loop]: it passes Check.Validate and the lockstep
   simulator, its II is at least the MII, and [formula] — the cycle
   count code_mcycles sums — equals the simulator's cycles. *)
let schedule ?(formula = formula_cycles) ~config
    (loop : Workload.Generator.loop) (s : Sched.Schedule.t) =
  let g = loop.Workload.Generator.graph in
  let id = loop.Workload.Generator.id in
  let problems = ref [] in
  let bad fmt =
    Printf.ksprintf (fun msg -> problems := (id ^ ": " ^ msg) :: !problems) fmt
  in
  (match Span.with_ "check.validate" (fun () -> Check.Validate.run ~original:g s) with
  | Ok () -> ()
  | Error issues ->
      List.iter (bad "validate: %s") (Check.Validate.to_strings issues));
  let ii = s.Sched.Schedule.ii in
  let mii = Ddg.Mii.mii config g in
  if ii < mii then bad "II %d below MII %d" ii mii;
  let trip = loop.Workload.Generator.trip in
  let cycles = formula ~trip ~length:(schedule_length s) ~ii in
  (match
     Span.with_ ~n:1. "sim.lockstep" (fun () ->
         Sim.Lockstep.run ~useful_per_iteration:(Ddg.Graph.n_nodes g) s
           ~iterations:trip)
   with
  | Error msg -> bad "lockstep: %s" msg
  | Ok c ->
      if c.Sim.Lockstep.cycles <> cycles then
        bad "formula cycles %d, simulator cycles %d" cycles c.Sim.Lockstep.cycles);
  { cycles; at_mii = ii = mii; problems = List.rev !problems }

(* A serve reply must equal the inline reference byte for byte. *)
let reply ~id ~expected got =
  if String.equal expected got then []
  else
    let n = min (String.length expected) (String.length got) in
    let rec first i = if i < n && expected.[i] = got.[i] then first (i + 1) else i in
    [ Printf.sprintf "%s: reply differs from Serve.direct_reply at byte %d" id (first 0) ]

(* The serve counters must account for every request slot. *)
let serve_counts ~requests ~hits ~computes ~coalesced =
  if hits + computes + coalesced = requests then []
  else
    [
      Printf.sprintf "serve: hits %d + computes %d + coalesced %d <> requests %d"
        hits computes coalesced requests;
    ]

(* The exact oracle may never beat the MII nor lose to the heuristic. *)
let oracle ~id ~mii ~exact_ii ~heuristic_ii =
  (if exact_ii < mii then [ Printf.sprintf "%s: exact II %d below MII %d" id exact_ii mii ]
   else [])
  @
  if exact_ii > heuristic_ii then
    [ Printf.sprintf "%s: exact II %d above heuristic II %d" id exact_ii heuristic_ii ]
  else []
