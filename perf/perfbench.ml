(* The benchmark's entry point.

     perfbench run --workload W --seed N --seconds S --trace 0|1
                   --programs DIR [--spans FILE] [--commit ID]
     perfbench digest --seed N
     perfbench metrics

   [run] prints a stamp line, then as its last line one JSON object
   with the run's correctness, operation counts and metrics: the
   end-to-end metrics when untraced, every per-layer metric when
   traced.  [digest] prints the seed's input digest (the seed test
   compares them); [metrics] prints the per-layer names and units. *)

let workloads = [ "uncontended"; "scaling-2d"; "fiber-storm" ]

let per_layer =
  List.concat_map
    (fun r -> [ ("ladder." ^ r ^ "_ns", "ns"); ("ladder." ^ r ^ "_words", "words") ])
    [ "floor"; "thin_direct"; "thin_nested"; "thin_packed"; "thin_sync"; "jvm_sync" ]
  @ [
      ("workload.replay.self_ns_per_op", "ns");
      ("core.thin.ns_per_op", "ns");
      ("jvm.self_ms", "ms");
      ("jvm.lock_ms", "ms");
      ("jvm.syncs", "count");
      ("lang.compile_ms", "ms");
      ("workload.tracegen_ms", "ms");
      ("parallel_replay.busy_ms.d0", "ms");
      ("parallel_replay.busy_ms.d1", "ms");
      ("parallel_replay.imbalance", "ratio");
      ("parallel_replay.steals", "count");
      ("parallel_replay.scaling_x", "x");
      ("parallel_replay.one_domain_ops_per_s", "1/s");
      ("parallel_replay.prep_ms", "ms");
      ("gc.minor_collections", "count");
      ("gc.minor_words_per_op", "words");
      ("fiber.runq_wait_us_p50", "us");
      ("fiber.runq_wait_us_p99", "us");
      ("fiber.hold_us_p50", "us");
      ("fiber.hold_us_p99", "us");
      ("fiber.episode_ms_p50", "ms");
      ("fiber.episodes", "count");
      ("monitor.acquire_wait_us_p50", "us");
      ("monitor.acquire_wait_us_p99", "us");
      ("monitor.acquire_wait_us_p999", "us");
      ("core.fast_ratio", "ratio");
      ("core.inflations", "count");
      ("core.inflations_contention", "count");
      ("core.acquires_fat_queued", "count");
      ("core.contended_episodes", "count");
      ("fatlock.spin_avoided_parks", "count");
      ("runtime.tid.overflow_waits", "count");
      ("trace.overhead_pct", "%");
      ("trace.latency_overhead_pct", "%");
      ("trace.spans", "count");
      ("trace.escaped_spans", "count");
      ("trace.unattributed_share", "ratio");
      ("trace.clock_ns", "ns");
      ("host.steal_share", "ratio");
    ]

(* Span bookkeeping of the traced phase: how many spans, how many lie
   outside their parent (none may: then each span's self time plus its
   children's cover is exactly its duration), and the share of the
   traced phase no pass span accounts for. *)
let account o spans =
  let by_id = Hashtbl.create 1024 in
  List.iter
    (fun (s : Spans.span) -> if s.Spans.id >= 0 then Hashtbl.replace by_id s.Spans.id s)
    spans;
  let escaped (s : Spans.span) =
    match Hashtbl.find_opt by_id s.Spans.parent with
    | Some p -> s.Spans.start < p.Spans.start || s.Spans.stop > p.Spans.stop
    | None -> s.Spans.parent >= 0
  in
  let selfs = Spans.self_times spans in
  let unattributed =
    let is_phase (x : Spans.self) = x.Spans.span.Spans.name = "traced_phase" in
    match List.find_opt is_phase selfs with
    | Some { Spans.span; self_ns; _ } ->
        float_of_int self_ns /. float_of_int (span.Spans.stop - span.Spans.start)
    | None -> 1.0
  in
  let m = Common.metric o in
  m "trace.spans" "count" (float_of_int (List.length spans));
  m "trace.escaped_spans" "count" (float_of_int (List.length (List.filter escaped spans)));
  m "trace.unattributed_share" "ratio" unattributed;
  m "trace.clock_ns" "ns" (Lazy.force Common.clock_ns);
  selfs

(* Numbers print with every digit they have. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The result line: every metric in [names], 0 where the run did not
   measure it.  A metric the run measured but [names] lacks is a bug in
   this program, and stops it before it prints a result. *)
let print_result o ~names =
  List.iter
    (fun (n, _, _) ->
      if not (List.mem_assoc n names) then failwith ("metric missing from the metric list: " ^ n))
    o.Common.metrics;
  let value name =
    match List.find_opt (fun (n, _, _) -> n = name) o.Common.metrics with
    | Some (_, _, v) -> v
    | None -> 0.0
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number (value name)) unit)
      names
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.Common.failed = 0 && o.Common.attempted > 0)
    o.Common.attempted o.Common.failed (String.concat ", " metrics)

(* The end-to-end metrics this program measures; run.py adds
   [peak_rss_mb], which the kernel reports for the whole process once
   it has exited. *)
let end_to_end = [ ("setup_s", "s"); ("throughput_per_s", "1/s"); ("latency_ms", "ms") ]

let run ~workload ~seed ~seconds ~trace ~programs ~spans_out ~commit =
  Printf.printf "stamp: workload=%s seed=%d seconds=%g trace=%b nproc=%d ocaml=%s commit=%s %s\n%!"
    workload seed seconds trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version commit ("profile=" ^ Build_info.profile);
  let o = Common.outcome () in
  let spans =
    match workload with
    | "uncontended" ->
        let inputs, setup_s = Uncontended.setup ~seed ~programs_dir:programs in
        if trace then Uncontended.per_layer o inputs ~seconds
        else (Uncontended.end_to_end o inputs setup_s ~seconds; [])
    | "scaling-2d" ->
        let inputs, setup_s = Scaling.setup ~seed in
        if trace then Scaling.per_layer o inputs ~seconds
        else (Scaling.end_to_end o inputs setup_s ~seconds; [])
    | "fiber-storm" ->
        let inputs, setup_s = Storm.setup ~seed in
        if trace then Storm.per_layer o inputs ~seconds
        else (Storm.end_to_end o inputs setup_s ~seconds; [])
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  if trace then begin
    let selfs = account o spans in
    Option.iter (fun path -> Spans.dump path selfs) spans_out
  end;
  print_result o ~names:(if trace then per_layer else end_to_end)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let programs = ref "perf/programs" and spans_out = ref None and commit = ref "unknown" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
      ("--programs", Arg.Set_string programs, "DIR directory of the pinned JVM programs");
      ( "--spans",
        Arg.String (fun p -> spans_out := Some p),
        "FILE where the traced run writes its spans" );
      ("--commit", Arg.Set_string commit, "ID source revision stamped on the result");
    ]
  in
  let command = ref "" in
  Arg.parse (Arg.align specs) (fun a -> command := a) "perfbench run|digest|metrics [options]";
  match !command with
  | "run" ->
      run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~programs:!programs ~spans_out:!spans_out ~commit:!commit
  | "digest" -> print_endline (Inputs.digest ~seed:!seed)
  | "metrics" -> List.iter (fun (n, u) -> Printf.printf "%s %s\n" n u) per_layer
  | c ->
      prerr_endline ("perfbench: unknown command " ^ c);
      exit 2
