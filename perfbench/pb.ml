(* pb: the benchmark's in-process runner.  perfbench/run.py builds it,
   starts one pb process per measured pass, and turns the JSON lines pb
   prints into the benchmark's metrics.

     pb run WORKLOAD SEED SECONDS [--trace FILE] [--ops N] [--op K]
            [--daemon EXE] [--dir DIR]

   One process runs a workload's op list (its first N ops with --ops, only
   op K with --op): set-up (repeated, each repetition timed), then the
   timed phase, then the correctness checks.
   With --trace the `Pom_auto/`Scalehls flow is composed from the public
   calls of each layer, every call wrapped in a span; the spans are kept in
   memory and written to FILE as Chrome trace-event JSON at the end.

   Output lines (all JSON objects with a "kind" field):
     host     OCaml version and the pinned job count
     setup    the repeated set-up durations, each with the calibration
              chunk timed after it
     op       one op: class, input, latency, design digest, checks, the
              calibration chunks timed around it, and, when traced, its
              per-layer numbers
     run      the timed phase's length and the measured process's peak RSS
     server   the daemon's counters (serve-mixed) *)

module Memo = Pom.Pipeline.Memo
module Projcache = Pom.Poly.Projcache
module Report = Pom.Hls.Report
module Prog = Pom.Polyir.Prog
module Protocol = Pom_server.Protocol
module Client = Pom_server.Client
module Server = Pom_server.Server
module Wire = Pom_wire.Wire

let now = Unix.gettimeofday

(* ---- JSON output ---------------------------------------------------- *)

let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let jfloat f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let jint = string_of_int

let jobj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) fields)
  ^ "}"

let jlist l = "[" ^ String.concat ", " l ^ "]"

(* Only the main thread prints: the serve-mixed clients record, and their
   replies are printed once both have stopped. *)
let emit fields =
  print_string (jobj fields);
  print_char '\n'

(* ---- inputs --------------------------------------------------------- *)

type input = { kernel : string; size : int; fw : Pom.framework }

let kernels = Pom.Workloads.Polybench.by_name @ Pom.Workloads.Image.by_name
let is_dnn i = List.mem_assoc i.kernel Pom.Workloads.Dnn.by_name

let build i =
  match List.assoc_opt i.kernel Pom.Workloads.Dnn.by_name with
  | Some b -> b ()
  | None -> (List.assoc i.kernel kernels) i.size

let fw_name : Pom.framework -> string = function
  | `Pom_auto -> "pom"
  | `Scalehls -> "scalehls"
  | `Baseline -> "baseline"
  | `Pluto -> "pluto"
  | `Polsca -> "polsca"
  | `Pom_manual -> "pom-manual"

let label i = Printf.sprintf "%s/%d/%s" i.kernel i.size (fw_name i.fw)

let shuffle rng l =
  let a = Array.of_list l in
  for k = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Kernel sign-off population: every kernel under both frameworks, in two
   rounds.  Each (round, framework) slot compiles the kernel at its own
   paper size, so no input repeats within a run.  Sign-off sizes are capped
   per kernel so that the simulator's share of an op stays bounded
   (doitgen at 32 alone costs seconds); a kernel's slots sign off at the
   sizes from the cap downwards, in slot order.  The seed only orders the
   ops: every run measures the same (paper size, sign-off size) pairs.
   When the seed also dealt the sign-off sizes to the slots, the pairs
   changed from run to run, and the latency median, which falls where the
   latencies are sparse, moved by 17% with them.
   (paper sizes of the slots pom, scalehls, pom, scalehls; sign-off cap) *)
let signoff_sizes =
  [
    ("gemm", ([ 1024; 2048; 1536; 768 ], 24));
    ("bicg", ([ 2048; 4096; 3072; 1024 ], 32));
    ("gesummv", ([ 2048; 4096; 3072; 1024 ], 32));
    ("2mm", ([ 1024; 2048; 1536; 768 ], 16));
    ("3mm", ([ 1024; 2048; 1536; 768 ], 16));
    ("atax", ([ 2048; 4096; 3072; 1024 ], 32));
    ("mvt", ([ 2048; 4096; 3072; 1024 ], 32));
    ("syrk", ([ 1024; 2048; 1536; 768 ], 20));
    ("trmm", ([ 1024; 2048; 1536; 768 ], 20));
    ("doitgen", ([ 128; 256; 192; 96 ], 10));
    ("jacobi-1d", ([ 2048; 4096; 3072; 1024 ], 32));
    ("jacobi-2d", ([ 256; 512; 384; 192 ], 16));
    ("heat-1d", ([ 2048; 4096; 3072; 1024 ], 32));
    ("seidel", ([ 256; 512; 384; 192 ], 14));
    ("edge-detect", ([ 512; 1024; 768; 384 ], 20));
    ("gaussian", ([ 512; 1024; 768; 384 ], 20));
    ("blur", ([ 512; 1024; 768; 384 ], 20));
  ]

(* ScaleHLS's seidel schedule reverses two dependences at most sizes (128,
   384, 512 and 1024: pom_compile -w seidel -s 512 -f scalehls
   --check-legality), so that op would fail in every run.  The pair is left
   out of the population, and the defect is listed in perfbench/README.md. *)
let known_illegal = [ ("seidel", `Scalehls) ]

type op =
  | Dnn of input
  | Signoff of { paper : input; signoff : input }

let op_label = function
  | Dnn i -> label i
  | Signoff { paper; signoff } -> label paper ^ "+" ^ string_of_int signoff.size

let dnn_ops rng =
  shuffle rng
    (List.map
       (fun (k, _) -> Dnn { kernel = k; size = 0; fw = `Pom_auto })
       Pom.Workloads.Dnn.by_name)

let signoff_ops rng =
  shuffle rng
    (List.concat_map
       (fun (k, (papers, cap)) ->
         let slots =
           List.filteri
             (fun _ (fw, _) -> not (List.mem (k, fw) known_illegal))
             (List.mapi
                (fun j paper ->
                  ((if j mod 2 = 0 then `Pom_auto else `Scalehls), paper))
                papers)
         in
         let sizes = List.init (List.length slots) (fun j -> cap - j) in
         List.map2
           (fun (fw, paper) signoff ->
             Signoff
               {
                 paper = { kernel = k; size = paper; fw };
                 signoff = { kernel = k; size = signoff; fw };
               })
           slots sizes)
       signoff_sizes)

(* ---- the design digest ---------------------------------------------- *)

(* What a design is, independent of how long it took to find: the result
   record as the wire encodes it, with the stopwatch field and the trace
   stripped (the trace narrates memo hits, which differ between a cold and
   a warm compile of one design). *)
let design_bytes (r : Protocol.result) =
  Wire.to_string Protocol.result_codec
    { r with Protocol.dse_time_s = 0.0; trace = [] }

let digest r = Digest.to_hex (Digest.string (design_bytes r))

(* ---- cold start ------------------------------------------------------ *)

let add_proj (a : Projcache.stats) (b : Projcache.stats) =
  {
    Projcache.exact_hits = a.Projcache.exact_hits + b.Projcache.exact_hits;
    exact_misses = a.Projcache.exact_misses + b.Projcache.exact_misses;
    param_hits = a.Projcache.param_hits + b.Projcache.param_hits;
    param_misses = a.Projcache.param_misses + b.Projcache.param_misses;
  }

(* Projection-cache counts from before the last reset (which zeroes them). *)
let proj_before_reset =
  ref
    { Projcache.exact_hits = 0; exact_misses = 0; param_hits = 0; param_misses = 0 }

(* Empty the caches a compile fills that have a reset.  The dependence memo
   and the linear-expression intern table have none; distinct inputs keep
   them from turning an op into a warm recompile. *)
let cold () =
  Memo.clear Memo.global;
  proj_before_reset := add_proj !proj_before_reset (Projcache.stats ());
  Projcache.reset ()

let peak_rss_kb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | _ -> go ()
      in
      let v = go () in
      close_in ic;
      v

(* ---- host speed ----------------------------------------------------- *)

(* The host's speed drifts: a shared host runs the same op at 0.65x to 1.5x
   its usual time, in phases of seconds to minutes, so a run's wall times
   move 10-15% with the moment it ran.  A calibration chunk is fixed work
   that is not the program's, timed right next to each op: the op's
   latency divided by the chunk's time cancels most of the drift
   (run.py scales the quotient back to milliseconds at a reference speed).
   The chunk allocates nothing and runs no GC, so a change to the
   program's allocation or GC settings cannot speed it up or slow it
   down: pseudo-random read-modify-writes over a 4 MB array (the
   cache-bound kind of work a compiler does), about 9 ms. *)
let calib_buf = Array.make (1 lsl 19) 0

let calib_chunk () =
  let t0 = now () in
  let a = calib_buf and x = ref 12345 and acc = ref 0 in
  let mask = Array.length a - 1 in
  for _ = 1 to 1_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land mask in
    a.(j) <- a.(j) + !x;
    acc := !acc lxor a.((j * 31) land mask)
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* Chunk times, [n] chunks in a row. *)
let calibrate n = List.init n (fun _ -> calib_chunk ())
let jcalib l = ("calib_s", jlist (List.map jfloat l))

(* Chunks taken inside an in-process op.  Chunks at its edges cannot see a
   phase that starts or ends within an op of several seconds (a DNN
   compile takes 7-12 s), so while an untraced op runs, an interval timer
   runs a chunk every [in_op_every] seconds in the op's own thread.  The
   op's latency leaves the chunks' time out.  (A traced op runs without
   them, so that no span holds a chunk.)  (start, seconds) of each chunk,
   latest first. *)
let in_op_every = 0.5
let in_op = ref []

let with_in_op_chunks f =
  let every = { Unix.it_interval = in_op_every; it_value = in_op_every } in
  let chunk _ =
    let t = now () in
    in_op := (t, calib_chunk ()) :: !in_op
  in
  in_op := [];
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle chunk);
  ignore (Unix.setitimer Unix.ITIMER_REAL every);
  Fun.protect f ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL { it_interval = 0.0; it_value = 0.0 });
      Sys.set_signal Sys.sigalrm Sys.Signal_default)

(* ---- spans ---------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;
  op : int;
  name : string;
  tid : int;
  t0 : float;
  t1 : float;
}

let span_lock = Mutex.create ()
let spans = ref []
let next_id = ref 0
let stacks : (int, (int * int) list) Hashtbl.t = Hashtbl.create 4
let tracing = ref false

(* [span ?op name f] times [f] as a child of the innermost open span of
   the calling thread; a root span names its op. *)
let span ?(op = -1) name f =
  if not !tracing then f ()
  else
    let tid = Thread.id (Thread.self ()) in
    let id, parent, op =
      Mutex.protect span_lock (fun () ->
          let id = !next_id in
          incr next_id;
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
          let parent, op =
            match stack with
            | (p, pop) :: _ -> (p, if op >= 0 then op else pop)
            | [] -> (-1, op)
          in
          Hashtbl.replace stacks tid ((id, op) :: stack);
          (id, parent, op))
    in
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        Mutex.protect span_lock (fun () ->
            Hashtbl.replace stacks tid (List.tl (Hashtbl.find stacks tid));
            spans := { id; parent; op; name; tid; t0; t1 } :: !spans))
      f

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Per-op span totals and per-layer self time (a span's duration minus the
   part its children cover). *)
let op_span_fields op =
  let mine =
    Mutex.protect span_lock (fun () ->
        List.filter (fun s -> s.op = op) !spans)
  in
  let dur s = s.t1 -. s.t0 in
  let child_time = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (dur s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    mine;
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  let totals = Hashtbl.create 16 and self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      add totals s.name (dur s);
      add self (layer_of s.name)
        (dur s
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)))
    mine;
  let ms tbl =
    jobj
      (List.sort compare
         (Hashtbl.fold (fun k v acc -> (k, jfloat (1e3 *. v)) :: acc) tbl []))
  in
  [ ("span_ms", ms totals); ("self_ms", ms self) ]

(* Chrome trace-event JSON (the format chrome://tracing and Perfetto
   open): one complete event per span, microsecond timestamps relative to
   the first span, one lane per thread. *)
let write_trace path =
  let all = List.rev !spans in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun k s ->
      if k > 0 then output_string oc ",\n";
      output_string oc
        (jobj
           [
             ("name", jstr s.name);
             ("cat", jstr (layer_of s.name));
             ("ph", jstr "X");
             ("ts", Printf.sprintf "%.3f" (1e6 *. (s.t0 -. base)));
             ("dur", Printf.sprintf "%.3f" (1e6 *. (s.t1 -. s.t0)));
             ("pid", "1");
             ("tid", jint s.tid);
             ( "args",
               jobj
                 [ ("op", jint s.op); ("id", jint s.id); ("parent", jint s.parent) ]
             );
           ]))
    all;
  output_string oc "\n], \"displayTimeUnit\": \"ms\"}\n";
  close_out oc

(* ---- counters ------------------------------------------------------- *)

type counts = {
  memo : Memo.counters;
  proj : Projcache.stats;
  dep : int * int;
  synth : int;
  words : float;
}

let counts () =
  {
    memo = Memo.snapshot Memo.global;
    proj = add_proj !proj_before_reset (Projcache.stats ());
    dep = Pom.Hls.Summary.dep_cache_stats ();
    synth = Report.synth_count ();
    words = Gc.minor_words ();
  }

let count_fields a b =
  let m0 = a.memo and m1 = b.memo in
  let p0 = a.proj and p1 = b.proj in
  [
    ("memo_schedule_hits", m1.Memo.schedule_hits - m0.Memo.schedule_hits);
    ("memo_schedule_misses", m1.Memo.schedule_misses - m0.Memo.schedule_misses);
    ("memo_plan_hits", m1.Memo.plan_hits - m0.Memo.plan_hits);
    ("memo_plan_misses", m1.Memo.plan_misses - m0.Memo.plan_misses);
    ("memo_report_hits", m1.Memo.report_hits - m0.Memo.report_hits);
    ("memo_report_misses", m1.Memo.report_misses - m0.Memo.report_misses);
    ( "proj_hits",
      p1.Projcache.exact_hits - p0.Projcache.exact_hits
      + (p1.Projcache.param_hits - p0.Projcache.param_hits) );
    ( "proj_lookups",
      p1.Projcache.exact_hits - p0.Projcache.exact_hits
      + (p1.Projcache.exact_misses - p0.Projcache.exact_misses) );
    ("dep_hits", fst b.dep - fst a.dep);
    ("dep_lookups", fst b.dep + snd b.dep - (fst a.dep + snd a.dep));
    ("synth_calls", b.synth - a.synth);
    ("minor_words", int_of_float (b.words -. a.words));
  ]

let ints l = List.map (fun (k, v) -> (k, jint v)) l

(* ---- one compile, untraced and traced ------------------------------- *)

let device = Pom.Hls.Device.xc7z020

let compile i func =
  Protocol.result_of_compiled
    (Pom.compile ~device ~framework:i.fw ~dnn:(is_dnn i) ~jobs:1 func)

(* Repeat [f] until [min_s] has passed; seconds per call. *)
let per_call ?(min_s = 0.005) f =
  let t0 = now () in
  let rec go n =
    f ();
    let dt = now () -. t0 in
    if dt < min_s then go (n + 1) else dt /. float_of_int n
  in
  go 1

(* The structural reference legality is proved against (what
   Pom.check_legality and the legality-check pass build). *)
let reference func =
  Prog.apply_all
    (Prog.of_func_unscheduled func)
    (Pom.Pipeline.Passes.structural_directives func)

(* What the search of one compile reports. *)
type search = {
  stage2_words : int;  (** minor words allocated by Stage2.run *)
  evaluations : int;
  cold_syntheses : int;
  pruned : int;
  scalehls_evaluations : int;
}

let no_search =
  {
    stage2_words = 0;
    evaluations = 0;
    cold_syntheses = 0;
    pruned = 0;
    scalehls_evaluations = 0;
  }

let add_search a b =
  {
    stage2_words = a.stage2_words + b.stage2_words;
    evaluations = a.evaluations + b.evaluations;
    cold_syntheses = a.cold_syntheses + b.cold_syntheses;
    pruned = a.pruned + b.pruned;
    scalehls_evaluations = a.scalehls_evaluations + b.scalehls_evaluations;
  }

let search_fields s =
  ints
    [
      ("dse_stage2_words", s.stage2_words);
      ("dse_evaluations", s.evaluations);
      ("dse_cold_syntheses", s.cold_syntheses);
      ("dse_pruned", s.pruned);
      ("scalehls_evaluations", s.scalehls_evaluations);
    ]

type traced = {
  result : Protocol.result;
  prog : Prog.t;  (** the final design *)
  directives : Pom.Dsl.Schedule.t list;
  composition : Pom.Hls.Resource.composition;
  latency_mode : Report.latency_mode;
  search : search;
}

(* Pom.compile for the searching flows, composed from the public call of
   each layer in the order the pass pipeline runs them, each call a span. *)
let traced_compile i func =
  let dnn = is_dnn i in
  let composition, latency_mode =
    match i.fw with
    | `Scalehls ->
        (Pom.Hls.Resource.Dataflow, if dnn then `Dataflow else `Sequential)
    | _ -> (Pom.Hls.Resource.Reuse, `Sequential)
  in
  let baseline_latency =
    span "hls.baseline_latency" (fun () -> Report.baseline_latency func)
  in
  let directives, prog, tile_vectors, search =
    match i.fw with
    | `Pom_auto ->
        let s1 = span "dse.stage1" (fun () -> Pom.Dse.Stage1.run func) in
        let w0 = Gc.minor_words () in
        let r =
          span "dse.stage2" (fun () ->
              Pom.Dse.Stage2.run ~device ~composition ~jobs:1 func s1)
        in
        let w1 = Gc.minor_words () in
        ( r.Pom.Dse.Stage2.directives,
          r.Pom.Dse.Stage2.prog,
          r.Pom.Dse.Stage2.tile_vectors,
          {
            stage2_words = int_of_float (w1 -. w0);
            evaluations = r.Pom.Dse.Stage2.evaluations;
            cold_syntheses = r.Pom.Dse.Stage2.cold_syntheses;
            pruned = r.Pom.Dse.Stage2.pruned;
            scalehls_evaluations = 0;
          } )
    | `Scalehls ->
        let r =
          span "baselines.scalehls" (fun () ->
              Pom.Baselines.Scalehls.run ~device ~dnn func)
        in
        ( r.Pom.Baselines.Scalehls.directives,
          r.Pom.Baselines.Scalehls.prog,
          r.Pom.Baselines.Scalehls.tile_vectors,
          {
            no_search with
            scalehls_evaluations = r.Pom.Baselines.Scalehls.evaluations;
          } )
    | _ -> invalid_arg "traced_compile: searching flows only"
  in
  let violations =
    span "polyir.legality" (fun () ->
        Pom.Polyir.Legality.violations ~original:(reference func)
          ~transformed:prog)
  in
  ignore (span "analysis.lint" (fun () -> Pom.Analysis.Lint.lint prog));
  let prog, report =
    span "hls.synthesize" (fun () ->
        Memo.synthesize Memo.global ~composition ~latency_mode ~device
          ~directives func (fun () -> prog))
  in
  let affine = span "affine.lower" (fun () -> Pom.Affine.Lower.lower prog) in
  let affine =
    span "affine.simplify" (fun () -> Pom.Affine.Passes.simplify affine)
  in
  ignore
    (span "analysis.verify" (fun () ->
         Pom.Analysis.Verify_ir.verify ~affine prog));
  let hls_c = span "emit.hls_c" (fun () -> Pom.Emit.Emit.hls_c affine) in
  {
    result =
      {
        Protocol.report;
        hls_c;
        speedup = Report.speedup ~baseline:baseline_latency report;
        dse_time_s = 0.0;
        baseline_latency;
        legality_violations = List.length violations;
        tile_vectors;
        trace = [];
      };
    prog;
    directives;
    composition;
    latency_mode;
    search;
  }

(* Unit costs of single layers on this op's final design, measured after
   the composition (so the counts above stay those of the compile). *)
let probes func t =
  let { result; prog; directives; composition; latency_mode; _ } = t in
  let synth =
    per_call (fun () ->
        ignore (Report.synthesize ~composition ~latency_mode ~device prog))
  in
  let apply =
    per_call (fun () ->
        ignore (Prog.apply_all (Prog.of_func_unscheduled func) directives))
  in
  let domains =
    List.map (fun s -> s.Pom.Polyir.Stmt_poly.domain) prog.Prog.stmts
  in
  let projections =
    List.fold_left
      (fun n d -> n + List.length (Pom.Poly.Basic_set.dims d))
      0 domains
  in
  let fm =
    Projcache.with_enabled false (fun () ->
        per_call (fun () ->
            List.iter
              (fun d ->
                List.iter
                  (fun v -> ignore (Pom.Poly.Basic_set.project_out v d))
                  (Pom.Poly.Basic_set.dims d))
              domains))
  in
  let bytes = Wire.to_string Protocol.result_codec result in
  let enc =
    per_call (fun () -> ignore (Wire.to_string Protocol.result_codec result))
  in
  let dec =
    per_call (fun () ->
        ignore (Wire.of_string_exn Protocol.result_codec bytes))
  in
  let mb = float_of_int (String.length bytes) /. 1e6 in
  [
    ("hls_synth_ms", jfloat (1e3 *. synth));
    ("polyir_schedule_apply_ms", jfloat (1e3 *. apply));
    ( "poly_fm_project_us",
      jfloat (1e6 *. fm /. float_of_int (max 1 projections)) );
    ("poly_fm_projections", jint projections);
    ("wire_result_bytes", jint (String.length bytes));
    ("wire_encode_mb_per_s", jfloat (mb /. enc));
    ("wire_decode_mb_per_s", jfloat (mb /. dec));
    ("emit_c_loc", jint (Pom.Emit.Emit.loc result.Protocol.hls_c));
  ]

(* Pom.validate, composed: the structural reference and the lowered
   design run on identical memories. *)
let traced_validate func prog =
  let ps = Pom.Dsl.Func.placeholders func in
  let ref_mem = Pom.Sim.Memory.create ps in
  let opt_mem = Pom.Sim.Memory.copy ref_mem in
  let w0 = Gc.minor_words () in
  span "sim.structural" (fun () -> Pom.Sim.Interp.run_structural func ref_mem);
  let affine = span "sim.lower" (fun () -> Pom.Affine.Lower.lower prog) in
  span "sim.affine" (fun () -> Pom.Sim.Interp.run_affine affine opt_mem);
  let w1 = Gc.minor_words () in
  ignore (span "sim.cycles_bound" (fun () -> Pom.Sim.Cycles.of_prog prog));
  let instances =
    List.fold_left
      (fun acc c -> acc + Pom.Dsl.Compute.trip_count c)
      0 (Pom.Dsl.Func.computes func)
  in
  ( Pom.Sim.Memory.max_diff ref_mem opt_mem,
    [
      ("sim_instances", jint (2 * instances));
      ("sim_words", jint (int_of_float (w1 -. w0)));
    ] )

(* ---- in-process workloads ------------------------------------------- *)

type verdict = { ok : bool; why : string }

let pass = { ok = true; why = "" }
let fail why = { ok = false; why }

let check_result (r : Protocol.result) =
  if r.Protocol.legality_violations <> 0 then
    fail (Printf.sprintf "%d reversed dependences" r.Protocol.legality_violations)
  else pass

(* One op of dnn-dse or kernel-signoff, untraced or traced.  Returns the
   fields of its "op" line; its latency covers the compiles and checks the
   op is made of, nothing else. *)
let run_op ~traced id op funcs =
  let t0 = ref 0.0 and t1 = ref 0.0 in
  let timed f =
    let timed () =
      t0 := now ();
      let v = f () in
      t1 := now ();
      v
    in
    let v = if traced then timed () else with_in_op_chunks timed in
    List.iter
      (fun (t, dt) -> if t >= !t0 && t < !t1 then t1 := !t1 -. dt)
      !in_op;
    v
  in
  let c0 = counts () in
  let design (r : Protocol.result) =
    [ ("digest", jstr (digest r)); ("speedup", jfloat r.Protocol.speedup) ]
  in
  let layer_fields func t extra =
    (* the counts are read before the probes add calls of their own *)
    let c = ints (count_fields c0 (counts ())) in
    c @ search_fields t.search @ extra @ probes func t
  in
  let signoff_verdict vs div r =
    if vs <> 0 then fail (Printf.sprintf "%d legality violations" vs)
    else if div <> 0.0 then fail (Printf.sprintf "divergence %g" div)
    else check_result r
  in
  let fields, verdict =
    match (op, funcs) with
    | Dnn i, [ func ] when not traced ->
        let r = timed (fun () -> cold (); compile i func) in
        (design r, check_result r)
    | Dnn i, [ func ] ->
        let t =
          timed (fun () ->
              span ~op:id "op" (fun () -> cold (); traced_compile i func))
        in
        (design t.result @ layer_fields func t [], check_result t.result)
    | Signoff { paper; signoff }, [ pfunc; sfunc ] when not traced ->
        (* the CLI's --validate --check-legality flow *)
        let c, vs, cv, div =
          timed (fun () ->
              cold ();
              let c = Pom.compile ~device ~framework:paper.fw ~jobs:1 pfunc in
              let vs = Pom.check_legality pfunc c in
              cold ();
              let cv =
                Pom.compile ~device ~framework:signoff.fw ~jobs:1 sfunc
              in
              (c, vs, cv, Pom.validate sfunc cv))
        in
        let r = Protocol.result_of_compiled c in
        ( design r
          @ [
              ("signoff_digest", jstr (digest (Protocol.result_of_compiled cv)));
              ("divergence", jfloat div);
            ],
          signoff_verdict (List.length vs) div r )
    | Signoff { paper; signoff }, [ pfunc; sfunc ] ->
        let t, vs, tv, (div, sim) =
          timed (fun () ->
              span ~op:id "op" (fun () ->
                  cold ();
                  let t = traced_compile paper pfunc in
                  let vs =
                    span "polyir.check_legality" (fun () ->
                        Pom.Polyir.Legality.violations
                          ~original:(reference pfunc) ~transformed:t.prog)
                  in
                  cold ();
                  let tv =
                    span "signoff" (fun () -> traced_compile signoff sfunc)
                  in
                  (t, vs, tv, traced_validate sfunc tv.prog)))
        in
        ( design t.result
          @ [
              ("signoff_digest", jstr (digest tv.result));
              ("divergence", jfloat div);
            ]
          @ layer_fields pfunc { t with search = add_search t.search tv.search } sim,
          signoff_verdict (List.length vs) div t.result )
    | _ -> invalid_arg "run_op"
  in
  [
    ("kind", jstr "op");
    ("id", jint id);
    ("class", jstr (match op with Dnn _ -> "dnn" | Signoff _ -> "signoff"));
    ("input", jstr (op_label op));
    ("latency_s", jfloat (!t1 -. !t0));
    ("ok", if verdict.ok then "true" else "false");
    ("why", jstr verdict.why);
  ]
  @ fields
  @ if traced then op_span_fields id else []

let op_inputs = function
  | Dnn i -> [ i ]
  | Signoff { paper; signoff } -> [ paper; signoff ]

(* Set-up samples; setup_s is the median of all of a run's samples.  The
   host's speed drifts over seconds, so samples bunched at one moment all
   see that moment: run.py gives each in-process op its own process, which
   spreads their set-ups over the run, and serve-mixed restarts its daemon
   before and after the timed phase.  Every sample is taken in the same
   state, in a fresh process before any op ran, or of a fresh daemon: a
   set-up repeated after a compile runs in a grown heap, measurably faster,
   and mixing the two would make the median jump between them.  Each
   sample is followed by a calibration chunk, and run.py scales it by that
   chunk's time. *)
let setup_samples = ref []

(* Set-up repetitions per process (serve-mixed: before and after the timed
   phase each). *)
let setup_reps = 5

(* [timed_setup make] runs one set-up repetition and records its time and
   the calibration chunk after it. *)
let timed_setup make =
  let t0 = now () in
  let v = make () in
  let dt = now () -. t0 in
  setup_samples := (dt, calib_chunk ()) :: !setup_samples;
  v

let emit_setup () =
  let samples, calib = List.split (List.rev !setup_samples) in
  emit
    [
      ("kind", jstr "setup");
      ("samples_s", jlist (List.map jfloat samples));
      jcalib calib;
    ]

let take n l = List.filteri (fun k _ -> k < n) l

(* [only] runs one op of the seeded order, for workloads that give each op
   a fresh process. *)
let in_process ~workload ~seed ~seconds ~traced ~max_ops ~only =
  let ops_of =
    match workload with
    | "dnn-dse" -> dnn_ops
    | "kernel-signoff" -> signoff_ops
    | w -> failwith ("unknown workload " ^ w)
  in
  let make () =
    let ops = take max_ops (ops_of (Random.State.make [| seed |])) in
    List.map (fun op -> (op, List.map build (op_inputs op))) ops
  in
  for _ = 2 to setup_reps do
    ignore (timed_setup make)
  done;
  let ops = timed_setup make in
  emit_setup ();
  emit
    [
      ("kind", jstr "order");
      ("ops", jlist (List.map (fun (op, _) -> jstr (op_label op)) ops));
    ];
  let deadline = now () +. seconds in
  let timed = ref 0.0 in
  List.iteri
    (fun id (op, funcs) ->
      if now () < deadline && (only = None || only = Some id) then begin
        let before = calibrate 3 in
        Gc.full_major ();
        let fields =
          try run_op ~traced id op funcs
          with e ->
            [
              ("kind", jstr "op");
              ("id", jint id);
              ("input", jstr (op_label op));
              ("ok", "false");
              ("why", jstr (Printexc.to_string e));
            ]
        in
        let fields =
          fields @ [ jcalib (before @ List.rev_map snd !in_op @ calibrate 3) ]
        in
        (match List.assoc_opt "latency_s" fields with
        | Some v -> timed := !timed +. float_of_string v
        | None -> ());
        emit fields
      end)
    ops;
  emit
    [
      ("kind", jstr "run");
      ("timed_s", jfloat !timed);
      ("rss_kb", jint (peak_rss_kb 0));
    ]

(* ---- serve-mixed ---------------------------------------------------- *)

(* Design points of the miss client and the journaled hit keys.  Every
   point is a distinct (kernel, size, framework) triple; hit keys use sizes
   no miss point uses. *)
let serve_kernels =
  [ "gemm"; "bicg"; "gesummv"; "2mm"; "atax"; "mvt"; "syrk"; "trmm";
    "jacobi-1d"; "heat-1d"; "edge-detect"; "blur" ]

let hit_keys = List.map (fun k -> { kernel = k; size = 640; fw = `Pom_auto })
  [ "gemm"; "bicg"; "atax"; "mvt"; "jacobi-1d"; "blur" ]

let miss_sizes =
  [ 256; 288; 320; 352; 384; 416; 448; 480; 512; 544; 576; 608 ]

(* The hit client's pause between a reply and its next request.  Without
   one, how many hits slip in between two misses depends on which client
   the scheduler wakes first, and the request count swings from run to
   run; with it, about one hit waits behind each compile. *)
let hit_think_s = 0.005

type req = { key : input; use_cache : bool; cls : string }

(* The miss client's stream, in rounds: round r asks for every kernel at
   the r-th size, the kernels in a seeded order, and in odd rounds each
   cold request is followed by a recompile (use_cache=false) of the same
   kernel's key from the round before.  The daemon's caches persist across
   requests, so a cold compile's time depends on what the daemon compiled
   before it: the same key ran 12 ms or 170 ms depending on its place in a
   freely shuffled stream.  In rounds, every kernel has the same history in
   every run (sizes ascending, a recompile after every odd size), and the
   seed only interleaves the kernels. *)
let miss_stream rng =
  List.concat
    (List.mapi
       (fun r n ->
         List.concat_map
           (fun k ->
             let cold = { kernel = k; size = n; fw = `Pom_auto } in
             { key = cold; use_cache = true; cls = "cold" }
             ::
             (if r mod 2 = 1 then
                [
                  {
                    key = { cold with size = List.nth miss_sizes (r - 1) };
                    use_cache = false;
                    cls = "recompile";
                  };
                ]
              else []))
           (shuffle rng serve_kernels))
       miss_sizes)

(* The daemon started last; stopped at exit whatever path pb leaves by. *)
let daemon_pid = ref None

let spawn_daemon ~daemon ~socket ~journal ~log =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process daemon
      [| daemon; "--serve"; socket; "-j"; "1"; "--cache-journal"; journal |]
      devnull devnull err
  in
  Unix.close devnull;
  Unix.close err;
  daemon_pid := Some pid;
  pid

let () =
  at_exit (fun () ->
      match !daemon_pid with
      | Some pid -> (
          try
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)
          with Unix.Unix_error _ -> ())
      | None -> ())

let wait_ping ~socket ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    match Client.ping ~socket with
    | h -> h
    | exception (Unix.Unix_error _ | End_of_file | Sys_error _)
      when now () < deadline ->
        Thread.delay 0.0005;
        go ()
  in
  go ()

let stop_daemon ~socket pid =
  (try ignore (Client.shutdown ~socket) with _ -> Unix.kill pid Sys.sigterm);
  ignore (Unix.waitpid [] pid);
  daemon_pid := None

let request_of funcs (r : req) id =
  Client.request ~id ~framework:r.key.fw ~use_cache:r.use_cache
    ~client:"perfbench" (Hashtbl.find funcs r.key)

(* A closed-loop client: the next request goes out [think] seconds after
   the previous reply arrived.  [next] gives the next request or None to
   stop.  A calibrating client runs a calibration chunk before its first
   request and after every reply, and records each request with the
   chunks on either side of it. *)
let client_loop ?(calib = false) ~socket ~think ~record next =
  let chunk () = if calib then [ calib_chunk () ] else [] in
  let rec go last =
    match next () with
    | None -> ()
    | Some (id, r, req) ->
        let t0 = now () in
        let resp =
          span ~op:id ("server.request." ^ r.cls) (fun () ->
              try Ok (Client.compile ~socket req) with e -> Error e)
        in
        let rtt = now () -. t0 in
        let after = chunk () in
        record id r rtt resp (last @ after);
        if think > 0.0 then Thread.delay think;
        go after
  in
  go (chunk ())

let serve ~seed ~seconds ~traced ~max_ops ~daemon ~dir =
  let socket = Filename.concat dir "pb.sock" in
  let journal = Filename.concat dir "cache.journal" in
  let log = Filename.concat dir "daemon.log" in
  (try Sys.remove journal with Sys_error _ -> ());
  let funcs = Hashtbl.create 128 in
  let make_inputs () =
    let rng = Random.State.make [| seed |] in
    let misses = take max_ops (miss_stream rng) in
    let hits = shuffle rng hit_keys in
    Hashtbl.reset funcs;
    List.iter
      (fun i -> Hashtbl.replace funcs i (build i))
      (hit_keys @ List.map (fun r -> r.key) misses);
    (misses, hits)
  in
  (* the journal: the hit keys compiled once by a daemon, outside any
     timing; their replies are the reference every later hit must match *)
  let misses, hits = make_inputs () in
  let pid = spawn_daemon ~daemon ~socket ~journal ~log in
  ignore (wait_ping ~socket ~timeout:30.0);
  let first = Hashtbl.create 16 in
  List.iteri
    (fun id k ->
      let resp =
        Client.compile ~socket
          (request_of funcs { key = k; use_cache = true; cls = "prep" } id)
      in
      Hashtbl.replace first k resp)
    hits;
  stop_daemon ~socket pid;
  (* every restart replays this journal; the timed phase appends to a copy *)
  let journal0 = journal ^ ".prep" in
  Sys.rename journal journal0;
  let restart () =
    Out_channel.with_open_bin journal (fun oc ->
        Out_channel.output_string oc
          (In_channel.with_open_bin journal0 In_channel.input_all));
    timed_setup (fun () ->
        ignore (make_inputs ());
        let pid = spawn_daemon ~daemon ~socket ~journal ~log in
        let h = wait_ping ~socket ~timeout:30.0 in
        if h.Protocol.h_cache_entries <> List.length hits then
          failwith "journal replay lost entries";
        pid)
  in
  (* set-up: inputs from the seed, then a daemon restart through journal
     replay until a ping answers; repeated before and after the timed
     phase *)
  for _ = 2 to setup_reps do
    stop_daemon ~socket (restart ())
  done;
  let pid = restart () in
  emit
    [
      ("kind", jstr "order");
      ("ops", jlist (List.map (fun r -> jstr (r.cls ^ ":" ^ label r.key)) misses));
    ];
  let results = ref [] and results_lock = Mutex.create () in
  let record id r rtt resp calib =
    Mutex.protect results_lock (fun () ->
        results := (id, r, rtt, resp, calib) :: !results)
  in
  let deadline = now () +. seconds in
  let miss_done = Atomic.make false in
  let queue = ref (List.mapi (fun k r -> (k, r)) misses) in
  let miss_next () =
    match !queue with
    | (k, r) :: rest when now () < deadline ->
        queue := rest;
        Some (k, r, request_of funcs r k)
    | _ ->
        Atomic.set miss_done true;
        None
  in
  let hit_arr = Array.of_list hits in
  let hit_n = ref 0 in
  let hit_next () =
    if Atomic.get miss_done then None
    else begin
      let k = hit_arr.(!hit_n mod Array.length hit_arr) in
      let id = 100_000 + !hit_n in
      incr hit_n;
      let r = { key = k; use_cache = true; cls = "hit" } in
      Some (id, r, request_of funcs r id)
    end
  in
  Gc.full_major ();
  let t0 = now () in
  let hit_thread =
    Thread.create
      (fun () -> client_loop ~socket ~think:hit_think_s ~record hit_next)
      ()
  in
  client_loop ~calib:true ~socket ~think:0.0 ~record miss_next;
  Thread.join hit_thread;
  let timed = now () -. t0 in
  let rss = peak_rss_kb pid in
  let stats = Client.stats ~socket in
  stop_daemon ~socket pid;
  let replay_ms =
    if not traced then 0.0
    else begin
      let t0 = now () in
      let s =
        Server.start ~jobs:1 ~cache_journal:journal
          ~socket:(Filename.concat dir "probe.sock") ()
      in
      let dt = now () -. t0 in
      Server.request_stop s;
      Server.join s;
      1e3 *. dt
    end
  in
  for _ = 1 to setup_reps do
    stop_daemon ~socket (restart ())
  done;
  emit_setup ();
  (* checks, outside the timed phase: every served design equals an
     in-process compile of the same request; every hit equals its key's
     first reply *)
  let references = Hashtbl.create 64 in
  let ref_digest i =
    match Hashtbl.find_opt references i with
    | Some d -> d
    | None ->
        let id = 200_000 + Hashtbl.length references in
        cold ();
        let func = Hashtbl.find funcs i in
        let d =
          if traced then begin
            let c0 = counts () in
            let t =
              span ~op:id "reference" (fun () -> traced_compile i func)
            in
            let c1 = counts () in
            emit
              ([ ("kind", jstr "reference"); ("id", jint id); ("input", jstr (label i)) ]
              @ ints (count_fields c0 c1)
              @ search_fields t.search @ probes func t @ op_span_fields id);
            digest t.result
          end
          else digest (compile i func)
        in
        Hashtbl.replace references i d;
        d
  in
  let first_bytes =
    Hashtbl.fold
      (fun k (resp : Protocol.response) acc ->
        match resp.Protocol.outcome with
        | Ok r -> (k, Wire.to_string Protocol.result_codec r) :: acc
        | Error _ -> acc)
      first []
  in
  (* reference compiles in a fixed order, hit keys first and then the miss
     stream's, so that a traced run's counts do not depend on how the two
     clients interleaved *)
  List.iter (fun k -> ignore (ref_digest k)) hits;
  List.iter
    (fun (id, r, rtt, resp, calib) ->
      let verdict, fields =
        match resp with
        | Error e -> (fail (Printexc.to_string e), [])
        | Ok (resp : Protocol.response) -> (
            let base =
              [
                ("wall_s", jfloat resp.Protocol.wall_s);
                ( "served",
                  jstr
                    (match resp.Protocol.served with
                    | Protocol.Cached -> "cached"
                    | Protocol.Computed -> "computed") );
                ("memo_report_hits", jint resp.Protocol.memo.Protocol.report_hits);
                ("memo_report_misses", jint resp.Protocol.memo.Protocol.report_misses);
                ("memo_plan_hits", jint resp.Protocol.memo.Protocol.plan_hits);
                ("memo_plan_misses", jint resp.Protocol.memo.Protocol.plan_misses);
                ("memo_schedule_hits", jint resp.Protocol.memo.Protocol.schedule_hits);
                ("memo_schedule_misses", jint resp.Protocol.memo.Protocol.schedule_misses);
              ]
            in
            match resp.Protocol.outcome with
            | Error e -> (fail (e.Protocol.code ^ ": " ^ e.Protocol.message), base)
            | Ok res ->
                let fields =
                  base
                  @ [ ("speedup", jfloat res.Protocol.speedup);
                      ("digest", jstr (digest res)) ]
                  @
                  if traced then
                    let bytes = Wire.to_string Protocol.result_codec res in
                    let mb = float_of_int (String.length bytes) /. 1e6 in
                    [
                      ("wire_result_bytes", jint (String.length bytes));
                      ( "wire_encode_mb_per_s",
                        jfloat
                          (mb
                          /. per_call (fun () ->
                                 ignore (Wire.to_string Protocol.result_codec res)))
                      );
                      ( "wire_decode_mb_per_s",
                        jfloat
                          (mb
                          /. per_call (fun () ->
                                 ignore (Wire.of_string_exn Protocol.result_codec bytes)))
                      );
                    ]
                  else []
                in
                let expect_served =
                  if r.cls = "hit" then Protocol.Cached else Protocol.Computed
                in
                if resp.Protocol.served <> expect_served then
                  (fail "served from the wrong path", fields)
                else if r.cls = "hit"
                        && Some (Wire.to_string Protocol.result_codec res)
                           <> List.assoc_opt r.key first_bytes
                then (fail "hit differs from its key's first reply", fields)
                else if digest res <> ref_digest r.key then
                  (fail "served design differs from in-process compile", fields)
                else (check_result res, fields))
      in
      emit
        ([
           ("kind", jstr "op");
           ("id", jint id);
           ("class", jstr r.cls);
           ("input", jstr (label r.key));
           ("latency_s", jfloat rtt);
           ("ok", if verdict.ok then "true" else "false");
           ("why", jstr verdict.why);
           jcalib calib;
         ]
        @ fields
        @ if traced then op_span_fields id else []))
    (List.sort
       (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a b)
       !results);
  emit
    [
      ("kind", jstr "run");
      ("timed_s", jfloat timed);
      ("rss_kb", jint rss);
    ];
  emit
    [
      ("kind", jstr "server");
      ("requests", jint stats.Protocol.requests);
      ("rejected", jint stats.Protocol.rejected);
      ("failed", jint stats.Protocol.failed);
      ("cache_hits", jint stats.Protocol.cache_hits);
      ("cache_misses", jint stats.Protocol.cache_misses);
      ("journal_replay_ms", jfloat replay_ms);
    ]

(* ---- main ----------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  match args with
  | "run" :: workload :: seed :: seconds :: rest ->
      Pom.Par.set_jobs 1;
      let trace_file = opt "--trace" rest in
      tracing := trace_file <> None;
      let traced = !tracing in
      let int_opt name default =
        Option.fold ~none:default ~some:int_of_string (opt name rest)
      in
      let max_ops = int_opt "--ops" max_int in
      let only = Option.map int_of_string (opt "--op" rest) in
      emit
        [
          ("kind", jstr "host");
          ("ocaml", jstr Sys.ocaml_version);
          ("jobs", jint (Pom.Par.jobs ()));
        ];
      let seed = int_of_string seed and seconds = float_of_string seconds in
      (match workload with
      | "serve-mixed" ->
          serve ~seed ~seconds ~traced ~max_ops
            ~daemon:(Option.get (opt "--daemon" rest))
            ~dir:(Option.value ~default:"." (opt "--dir" rest))
      | _ ->
          in_process ~workload ~seed ~seconds ~traced ~max_ops ~only);
      Option.iter write_trace trace_file
  | _ ->
      prerr_endline
        "usage: pb run WORKLOAD SEED SECONDS [--trace FILE] [--ops N] [--op K] \
         [--daemon EXE] [--dir DIR]";
      exit 2
