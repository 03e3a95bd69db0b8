(* The resilience layer: cooperative budgets, typed failures and per-pass
   degradation, crash-safe DSE checkpointing, the hardened worker pool, and
   the deterministic fault-injection knob that exercises all of it. *)

module R = Pom_resilience
module Memo = Pom_pipeline.Memo
module Polybench = Pom_workloads.Polybench

let with_faults spec f =
  R.Fault.configure spec;
  Fun.protect ~finally:R.Fault.reset f

(* -------- budgets -------- *)

let test_budget_ticks () =
  Alcotest.(check bool) "no ambient budget" false (R.Budget.active ());
  (match
     R.Budget.with_budget ~max_ticks:10 (fun () ->
         for _ = 1 to 20 do
           R.Budget.tick "test:loop"
         done)
   with
  | exception R.Budget.Budget_exceeded { site; _ } ->
      Alcotest.(check string) "site" "test:loop" site
  | () -> Alcotest.fail "expected the tick cap to trip");
  Alcotest.(check bool) "budget restored" false (R.Budget.active ())

let test_budget_deadline () =
  match
    R.Budget.with_budget ~deadline_s:0.0 (fun () ->
        Unix.sleepf 0.002;
        R.Budget.check "test:deadline")
  with
  | exception R.Budget.Budget_exceeded { site; _ } ->
      Alcotest.(check string) "site" "test:deadline" site
  | () -> Alcotest.fail "expected the deadline to trip"

let test_budget_noop_without_install () =
  (* without a budget every check is free and silent *)
  R.Budget.check "test:none";
  R.Budget.tick ~cost:1_000_000 "test:none"

let test_budget_cancel () =
  (* an external cancel poll trips a checkpoint exactly like a deadline *)
  let cancelled = Atomic.make false in
  (match
     R.Budget.with_budget
       ~cancel:(fun () -> Atomic.get cancelled)
       (fun () ->
         R.Budget.check "test:cancel";
         Atomic.set cancelled true;
         R.Budget.check "test:cancel")
   with
  | exception R.Budget.Budget_exceeded { site; reason } ->
      Alcotest.(check string) "site" "test:cancel" site;
      Alcotest.(check string) "reason" "request cancelled" reason
  | () -> Alcotest.fail "expected cancellation to trip the budget");
  (* a poll that raises is treated as not-cancelled, never as a crash *)
  R.Budget.with_budget
    ~cancel:(fun () -> failwith "poll blew up")
    (fun () -> R.Budget.check "test:cancel-raise")

(* -------- policy -------- *)

let test_policy_parse () =
  Alcotest.(check bool) "abort" true
    (R.Policy.of_string "abort" = Ok R.Policy.Abort);
  Alcotest.(check bool) "degrade" true
    (R.Policy.of_string "degrade" = Ok R.Policy.Degrade);
  Alcotest.(check bool) "junk rejected" true
    (match R.Policy.of_string "explode" with Error _ -> true | Ok _ -> false);
  R.Policy.with_policy R.Policy.Degrade (fun () ->
      Alcotest.(check bool) "degrading inside" true (R.Policy.degrading ()));
  Alcotest.(check bool) "restored outside" false (R.Policy.degrading ())

(* -------- fault injection -------- *)

let test_fault_spec () =
  with_faults "test:site=fail@2" (fun () ->
      R.Fault.point "test:site";
      R.Fault.point "test:other";
      match R.Fault.point "test:site" with
      | exception R.Fault.Injected site ->
          Alcotest.(check string) "second visit fires" "test:site" site
      | () -> Alcotest.fail "expected the injected failure");
  Alcotest.(check bool) "reset disarms" false (R.Fault.enabled ());
  Alcotest.(check bool) "malformed spec rejected" true
    (match R.Fault.configure "nonsense" with
    | exception Invalid_argument _ -> true
    | () ->
        R.Fault.reset ();
        false)

let test_fault_kinds () =
  with_faults "a=timeout@1,b=kill@1" (fun () ->
      (match R.Fault.point "a" with
      | exception R.Budget.Budget_exceeded _ -> ()
      | () -> Alcotest.fail "timeout kind should raise Budget_exceeded");
      match R.Fault.point "b" with
      | exception R.Fault.Killed "b" -> ()
      | _ -> Alcotest.fail "kill kind should raise Killed");
  (* stall holds the site until the ambient budget gives up: here a cancel
     poll that answers true on its fifth call *)
  with_faults "c=stall@1,d=stall@1" (fun () ->
      let polls = ref 0 in
      (match
         R.Budget.with_budget
           ~cancel:(fun () ->
             incr polls;
             !polls >= 5)
           (fun () -> R.Fault.point "c")
       with
      | exception R.Budget.Budget_exceeded { site; _ } ->
          Alcotest.(check string) "stall ends at its site" "c" site;
          Alcotest.(check int) "held until cancelled" 5 !polls
      | () -> Alcotest.fail "stall kind should end in Budget_exceeded");
      match R.Fault.point "d" with
      | exception R.Budget.Budget_exceeded _ -> ()
      | () -> Alcotest.fail "stall with no budget should raise at once")

(* -------- checkpoint journal -------- *)

let test_checkpoint_roundtrip () =
  let path = Filename.temp_file "pom_ckpt" ".jrnl" in
  Sys.remove path;
  let j, recs, _ = R.Checkpoint.load path in
  Alcotest.(check int) "fresh journal empty" 0 (List.length recs);
  R.Checkpoint.append j ~key:"k1" ~data:"d1";
  R.Checkpoint.append j ~key:"k2" ~data:"d2";
  R.Checkpoint.close j;
  let j2, recs2, notes2 = R.Checkpoint.load path in
  R.Checkpoint.close j2;
  Alcotest.(check (list (pair string string)))
    "records replay in order"
    [ ("k1", "d1"); ("k2", "d2") ]
    recs2;
  Alcotest.(check (list string)) "clean reload carries no notes" [] notes2;
  (* a crash mid-append leaves a torn tail: it must be truncated away and
     the journal must keep accepting appends afterwards *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "torn";
  close_out oc;
  let j3, recs3, notes3 = R.Checkpoint.load path in
  Alcotest.(check int) "torn tail dropped" 2 (List.length recs3);
  Alcotest.(check bool) "truncation is reported" true (notes3 <> []);
  R.Checkpoint.append j3 ~key:"k3" ~data:"d3";
  R.Checkpoint.close j3;
  let j4, recs4, _ = R.Checkpoint.load path in
  R.Checkpoint.close j4;
  Alcotest.(check int) "extends cleanly after recovery" 3 (List.length recs4);
  (* an unrecognized header is restarted empty, not trusted *)
  let oc = open_out_bin path in
  output_string oc "NOTAJRNL\nwhatever";
  close_out oc;
  let j5, recs5, _ = R.Checkpoint.load path in
  R.Checkpoint.close j5;
  Alcotest.(check int) "bad magic restarts empty" 0 (List.length recs5);
  Sys.remove path

let test_checkpoint_fsync_each () =
  (* fsync_each is a durability knob, not a behaviour change: records
     written under it replay identically *)
  let path = Filename.temp_file "pom_ckpt_sync" ".jrnl" in
  Sys.remove path;
  let j, _, _ = R.Checkpoint.load ~fsync_each:true path in
  R.Checkpoint.append j ~key:"k1" ~data:"d1";
  R.Checkpoint.append j ~key:"k2" ~data:"d2";
  R.Checkpoint.close j;
  let j2, recs2, notes2 = R.Checkpoint.load path in
  R.Checkpoint.close j2;
  Alcotest.(check (list (pair string string)))
    "synced records replay" [ ("k1", "d1"); ("k2", "d2") ] recs2;
  Alcotest.(check (list string)) "no degradation notes" [] notes2;
  Sys.remove path

(* -------- memo in-flight claim reclaim -------- *)

let test_memo_claim_reclaim () =
  let cache = Memo.create ~reclaim_after:0.05 () in
  let func = Polybench.gemm 16 in
  let device = Pom_hls.Device.xc7z020 in
  (* leak an in-flight claim: the compute fails AND the owner "dies" before
     withdrawing (the fault skips the withdrawal, as a killed domain would) *)
  with_faults "memo:withdraw-skip=fail@1" (fun () ->
      match
        Memo.synthesize cache ~device ~directives:[] func (fun () ->
            failwith "boom")
      with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected the compute to fail");
  (* after reclaim_after the stale claim is presumed dead and taken over *)
  Unix.sleepf 0.06;
  let _, report =
    Memo.synthesize cache ~device ~directives:[] func (fun () ->
        Pom_polyir.Prog.of_func_unscheduled func)
  in
  Alcotest.(check bool) "stale claim reclaimed, value computed" true
    (report.Pom_hls.Report.latency > 0)

(* -------- hardened worker pool -------- *)

let test_pool_worker_killed () =
  with_faults "pool:task=kill@1" (fun () ->
      Pom_par.Par.with_jobs 2 (fun () ->
          (match Pom_par.Par.map (fun x -> x + 1) [ 1; 2; 3 ] with
          | exception R.Error.Error e ->
              Alcotest.(check string) "typed worker death" "POM305"
                e.R.Error.code
          | _ -> Alcotest.fail "expected a POM305 error");
          (* the pool survives the death: the next map still runs *)
          Alcotest.(check (list int))
            "pool alive afterwards" [ 2; 3; 4 ]
            (Pom_par.Par.map (fun x -> x + 1) [ 1; 2; 3 ])))

(* -------- per-pass degradation matrix -------- *)

(* Inject a failure into each pass of the `Baseline flow in turn.  Under
   --on-error degrade a skippable pass becomes a POM300 warning diagnostic
   and the compile still delivers; a required pass (one that produces the
   artifact) aborts with the typed error under either policy. *)
let skippable_passes =
  [ "structural-directives"; "legality-check"; "lint-pragmas"; "verify-ir" ]

let required_passes =
  [
    "schedule-apply";
    "hls-synthesize";
    "affine-lower";
    "affine-simplify";
    "emit-hls-c";
  ]

let test_fault_matrix_degrade () =
  List.iter
    (fun name ->
      with_faults
        (Printf.sprintf "pass:%s=fail@1" name)
        (fun () ->
          let c =
            Pom.compile ~framework:`Baseline ~on_error:R.Policy.Degrade
              (Polybench.gemm 16)
          in
          Alcotest.(check bool)
            (name ^ " degraded to a POM300 diagnostic")
            true
            (List.exists
               (fun (d : Pom_analysis.Diagnostic.t) ->
                 d.Pom_analysis.Diagnostic.code = "POM300"
                 && (match d.Pom_analysis.Diagnostic.loc with
                    | p :: _ -> p = name
                    | [] -> false))
               c.Pom.diags)))
    skippable_passes;
  List.iter
    (fun name ->
      with_faults
        (Printf.sprintf "pass:%s=fail@1" name)
        (fun () ->
          match
            Pom.compile ~framework:`Baseline ~on_error:R.Policy.Degrade
              (Polybench.gemm 16)
          with
          | exception R.Error.Error e ->
              Alcotest.(check string)
                (name ^ " aborts even when degrading")
                "POM300" e.R.Error.code
          | _ -> Alcotest.failf "required pass %s must not be skipped" name))
    required_passes

let test_fault_matrix_abort_policy () =
  (* the default policy turns any guarded failure into the typed error *)
  with_faults "pass:lint-pragmas=fail@1" (fun () ->
      match Pom.compile ~framework:`Baseline (Polybench.gemm 16) with
      | exception R.Error.Error e ->
          Alcotest.(check string) "POM300 under abort" "POM300" e.R.Error.code;
          Alcotest.(check (option string))
            "failing pass recorded"
            (Some "lint-pragmas") e.R.Error.pass
      | _ -> Alcotest.fail "expected the typed abort")

let test_fault_timeout_degrades_to_pom301 () =
  with_faults "pass:legality-check=timeout@1" (fun () ->
      let c =
        Pom.compile ~framework:`Baseline ~on_error:R.Policy.Degrade
          (Polybench.gemm 16)
      in
      Alcotest.(check bool) "timeout surfaces as POM301" true
        (List.exists
           (fun (d : Pom_analysis.Diagnostic.t) ->
             d.Pom_analysis.Diagnostic.code = "POM301")
           c.Pom.diags))

let test_fault_kill_is_never_absorbed () =
  with_faults "pass:lint-pragmas=kill@1" (fun () ->
      match
        Pom.compile ~framework:`Baseline ~on_error:R.Policy.Degrade
          (Polybench.gemm 16)
      with
      | exception R.Fault.Killed _ -> ()
      | _ -> Alcotest.fail "a kill must unwind even under degrade")

(* -------- deadline acceptance -------- *)

let test_deadline_aborts_cleanly () =
  (* an effectively-zero deadline on a large kernel: the compile must exit
     with the typed budget diagnostic, not hang or crash *)
  match
    Pom.compile ~framework:`Pom_auto ~jobs:1 ~deadline_s:1e-4
      (Polybench.gemm 256)
  with
  | exception R.Error.Error e ->
      Alcotest.(check string) "typed budget abort" "POM301" e.R.Error.code
  | exception R.Budget.Budget_exceeded _ -> ()
  | _ -> Alcotest.fail "expected the deadline to abort the compile"

(* -------- checkpoint kill-and-resume acceptance -------- *)

let test_checkpoint_kill_and_resume () =
  let module Engine = Pom_dse.Engine in
  let func = Polybench.gemm 32 in
  (* ground truth: one uninterrupted search on a cold private cache *)
  let full = (Engine.run ~cache:(Memo.create ()) ~jobs:1 func).Engine.result in
  Alcotest.(check bool) "search long enough to kill mid-way" true
    (full.Pom_dse.Stage2.evaluations > 4);
  let path = Filename.temp_file "pom_dse" ".jrnl" in
  Sys.remove path;
  (* the same search, checkpointed, killed on its 4th sequential
     evaluation — simulating the process dying mid-DSE *)
  R.Fault.configure "dse:evaluate=kill@4";
  (match Engine.run ~cache:(Memo.create ()) ~jobs:1 ~checkpoint:path func with
  | exception R.Fault.Killed site ->
      Alcotest.(check string) "died at the evaluation site" "dse:evaluate"
        site
  | _ -> Alcotest.fail "expected the injected kill to unwind");
  R.Fault.reset ();
  Alcotest.(check bool) "journal survived the kill" true
    (Sys.file_exists path);
  (* resume on a fresh cold cache: the journal replays the evaluated
     points, and the search re-derives the identical final design *)
  let resumed =
    (Engine.run ~cache:(Memo.create ()) ~jobs:1 ~checkpoint:path func)
      .Engine.result
  in
  Alcotest.(check bool) "identical directives" true
    (full.Pom_dse.Stage2.directives = resumed.Pom_dse.Stage2.directives);
  Alcotest.(check bool) "identical tile vectors" true
    (full.Pom_dse.Stage2.tile_vectors = resumed.Pom_dse.Stage2.tile_vectors);
  Alcotest.(check int) "identical latency"
    full.Pom_dse.Stage2.report.Pom_hls.Report.latency
    resumed.Pom_dse.Stage2.report.Pom_hls.Report.latency;
  Alcotest.(check bool) "identical report" true
    (full.Pom_dse.Stage2.report = resumed.Pom_dse.Stage2.report);
  (* the resumed run actually used the journal: some of its evaluations
     were served by replay instead of cold synthesis *)
  Alcotest.(check bool) "resume replayed journaled work" true
    (resumed.Pom_dse.Stage2.cold_syntheses
    < full.Pom_dse.Stage2.cold_syntheses);
  Sys.remove path

(* -------- client retry/backoff -------- *)

module Retry = Pom.Resilience.Retry

exception Transient

exception Fatal

let fast_policy =
  { Retry.retries = 3; base_s = 0.001; factor = 2.0; max_s = 0.01; seed = 7 }

(* The whole point of the seeded jitter: the schedule is a pure function
   of (policy, attempt), so a chaos run replays byte-identical timing. *)
let test_retry_backoff_deterministic () =
  let sched p = List.init 6 (fun i -> Retry.backoff_s p ~attempt:(i + 1)) in
  Alcotest.(check (list (float 1e-12)))
    "same policy, same schedule" (sched Retry.default) (sched Retry.default);
  let reseeded = { Retry.default with Retry.seed = 1 } in
  Alcotest.(check bool) "different seed desynchronizes" true
    (sched Retry.default <> sched reseeded);
  List.iteri
    (fun i d ->
      let attempt = i + 1 in
      let raw =
        Float.min Retry.default.Retry.max_s
          (Retry.default.Retry.base_s
          *. (Retry.default.Retry.factor ** float_of_int i))
      in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d within the jitter band" attempt)
        true
        (d >= (0.5 *. raw) -. 1e-12 && d <= raw +. 1e-12))
    (sched Retry.default)

let test_retry_succeeds_after_transients () =
  let calls = ref 0 and observed = ref [] in
  let v =
    Retry.run ~policy:fast_policy
      ~on_retry:(fun ~attempt ~delay_s:_ _ -> observed := attempt :: !observed)
      ~retry_on:(function Transient -> true | _ -> false)
      (fun () ->
        incr calls;
        if !calls < 3 then raise Transient;
        !calls * 10)
  in
  Alcotest.(check int) "third attempt succeeded" 30 v;
  Alcotest.(check (list int)) "each scheduled retry observed" [ 2; 1 ]
    !observed

let test_retry_exhaustion_reraises_last () =
  let calls = ref 0 in
  match
    Retry.run ~policy:fast_policy
      ~retry_on:(function Transient -> true | _ -> false)
      (fun () ->
        incr calls;
        raise Transient)
  with
  | _ -> Alcotest.fail "retry loop returned on a permanent failure"
  | exception Transient ->
      Alcotest.(check int) "retries + 1 attempts" (fast_policy.Retry.retries + 1)
        !calls

let test_retry_rejects_non_transient () =
  let calls = ref 0 in
  match
    Retry.run ~policy:fast_policy
      ~retry_on:(function Transient -> true | _ -> false)
      (fun () ->
        incr calls;
        raise Fatal)
  with
  | _ -> Alcotest.fail "fatal exception was swallowed"
  | exception Fatal -> Alcotest.(check int) "no retry on fatal" 1 !calls

(* The backoff must never overshoot the caller's deadline: when the next
   sleep does not fit, the loop gives up immediately. *)
let test_retry_deadline_bounds_sleeps () =
  let slow =
    { Retry.retries = 50; base_s = 0.5; factor = 2.0; max_s = 5.0; seed = 0 }
  in
  let calls = ref 0 in
  let t0 = Unix.gettimeofday () in
  (match
     Retry.run ~policy:slow ~deadline_s:0.2
       ~retry_on:(function Transient -> true | _ -> false)
       (fun () ->
         incr calls;
         raise Transient)
   with
  | _ -> Alcotest.fail "unreachable"
  | exception Transient -> ());
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "gave up inside the deadline (%.3f s)" dt)
    true (dt < 0.5);
  Alcotest.(check bool) "at most a couple of attempts fit" true (!calls <= 2)

let () =
  Alcotest.run "resilience"
    [
      ( "budget",
        [
          Alcotest.test_case "tick cap" `Quick test_budget_ticks;
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
          Alcotest.test_case "no-op without install" `Quick
            test_budget_noop_without_install;
          Alcotest.test_case "external cancel" `Quick test_budget_cancel;
        ] );
      ("policy", [ Alcotest.test_case "parse and scope" `Quick test_policy_parse ]);
      ( "fault injection",
        [
          Alcotest.test_case "spec and arming" `Quick test_fault_spec;
          Alcotest.test_case "kinds" `Quick test_fault_kinds;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip and torn tail" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "fsync_each replay" `Quick
            test_checkpoint_fsync_each;
        ] );
      ( "memo",
        [ Alcotest.test_case "stale claim reclaim" `Quick test_memo_claim_reclaim ] );
      ( "pool",
        [ Alcotest.test_case "worker death is typed" `Quick test_pool_worker_killed ] );
      ( "degradation",
        [
          Alcotest.test_case "fault matrix (degrade)" `Quick
            test_fault_matrix_degrade;
          Alcotest.test_case "fault matrix (abort)" `Quick
            test_fault_matrix_abort_policy;
          Alcotest.test_case "timeout becomes POM301" `Quick
            test_fault_timeout_degrades_to_pom301;
          Alcotest.test_case "kill is never absorbed" `Quick
            test_fault_kill_is_never_absorbed;
        ] );
      ( "retry",
        [
          Alcotest.test_case "seeded backoff is deterministic" `Quick
            test_retry_backoff_deterministic;
          Alcotest.test_case "succeeds after transients" `Quick
            test_retry_succeeds_after_transients;
          Alcotest.test_case "exhaustion re-raises the last failure" `Quick
            test_retry_exhaustion_reraises_last;
          Alcotest.test_case "non-transient propagates immediately" `Quick
            test_retry_rejects_non_transient;
          Alcotest.test_case "deadline bounds the schedule" `Quick
            test_retry_deadline_bounds_sleeps;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "deadline aborts cleanly" `Slow
            test_deadline_aborts_cleanly;
          Alcotest.test_case "checkpoint kill-and-resume" `Slow
            test_checkpoint_kill_and_resume;
        ] );
    ]
