(* Exit-code contract of the pom_compile driver: 0 success, 1 usage errors,
   2 analyzer/legality failures.  The driver binary is a declared dune
   dependency, so the tests run against the freshly built executable. *)

(* the driver lives next to this test in the build tree, so resolve it from
   the test binary itself and stay independent of the runner's cwd *)
let exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "pom_compile.exe"))

let run args = Sys.command (exe ^ " " ^ args ^ " > /dev/null 2> /dev/null")

let test_success () =
  Alcotest.(check int) "clean manual compile" 0
    (run "-w gemm -s 32 -f pom-manual");
  Alcotest.(check int) "lint warnings alone do not fail the build" 0
    (run "-w gemm -s 32 -f pom-manual --schedule \"pipeline s k 1\" --lint")

let test_usage_errors () =
  Alcotest.(check int) "unknown workload" 1 (run "-w no-such-kernel");
  Alcotest.(check int) "unknown framework" 1 (run "-w gemm -f no-such-flow");
  Alcotest.(check int) "malformed schedule" 1
    (run "-w gemm -f pom-manual --schedule \"pipeline s\"")

(* Numeric options must be rejected up front with a clear usage error,
   never clamped or allowed to wedge a worker pool. *)
let test_bad_numeric_options () =
  Alcotest.(check int) "--jobs 0" 1 (run "-w gemm -j 0");
  Alcotest.(check int) "--jobs negative" 1 (run "-w gemm --jobs=-2");
  Alcotest.(check int) "--chunk 0" 1 (run "-w gemm --chunk=0");
  Alcotest.(check int) "--size negative" 1 (run "-w gemm --size=-5");
  Alcotest.(check int) "--deadline 0" 1 (run "-w gemm --deadline=0");
  Alcotest.(check int) "--deadline negative" 1 (run "-w gemm --deadline=-1.5");
  Alcotest.(check int) "--queue 0" 1 (run "--serve /tmp/unused.sock --queue=0");
  Alcotest.(check int) "--resource-fraction 0" 1
    (run "-w gemm --resource-fraction=0");
  (* retry knobs: zero or negative would mean "never try" / busy-loop *)
  Alcotest.(check int) "--retries 0" 1 (run "-w gemm --retries=0");
  Alcotest.(check int) "--retries negative" 1 (run "-w gemm --retries=-1");
  Alcotest.(check int) "--retry-backoff 0" 1 (run "-w gemm --retry-backoff=0");
  Alcotest.(check int) "--retry-backoff negative" 1
    (run "-w gemm --retry-backoff=-0.5")

let test_analysis_failures () =
  Alcotest.(check int) "--Werror promotes the analyzer warning" 2
    (run "-w gemm -s 32 -f pom-manual --schedule \"pipeline s k 1\" --Werror");
  Alcotest.(check int) "illegal schedule (reversed dependences)" 2
    (run "-w seidel -s 16 -f pom-manual --schedule \"interchange s t j\"")

(* stdout of a successful run, one string per line *)
let output_lines args =
  let out = Filename.temp_file "pom_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      Alcotest.(check int) ("exit code of " ^ args) 0
        (Sys.command
           (exe ^ " " ^ args ^ " > " ^ Filename.quote out ^ " 2> /dev/null"));
      In_channel.with_open_text out In_channel.input_all
      |> String.split_on_char '\n')

(* --timing accounts for every emptiness test: decided by FM alone or by
   the point-enumeration fallback.  bicg's tiled domains (i = 32*i_o +
   i_i) stay exact when the unit-coefficient dimensions are eliminated
   first, so none of its tests may fall back. *)
let test_timing_emptiness_line () =
  let lines = output_lines "-w bicg -s 2048 -f pom -j 1 --timing" in
  match
    List.find_map
      (fun l ->
        try
          Scanf.sscanf l
            "poly: emptiness %d tests, %d decided by FM, %d by point \
             enumeration%!"
            (fun n fm en -> Some (n, fm, en))
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
      lines
  with
  | None -> Alcotest.fail "no emptiness line in --timing output"
  | Some (n, fm, en) ->
      Alcotest.(check bool) "some tests ran" true (n > 0);
      Alcotest.(check int) "every test is accounted for" n (fm + en);
      Alcotest.(check int) "no enumeration fallback on tiled bicg" 0 en

let () =
  Alcotest.run "cli"
    [
      ( "exit-codes",
        [
          Alcotest.test_case "success" `Quick test_success;
          Alcotest.test_case "usage errors" `Quick test_usage_errors;
          Alcotest.test_case "bad numeric options" `Quick
            test_bad_numeric_options;
          Alcotest.test_case "analysis failures" `Quick test_analysis_failures;
        ] );
      ( "timing",
        [
          Alcotest.test_case "emptiness line" `Quick test_timing_emptiness_line;
        ] );
    ]
