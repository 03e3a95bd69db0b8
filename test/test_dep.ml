open Pom_poly

let v = Linexpr.var

let c = Linexpr.const

let box dims_bounds =
  Basic_set.make
    (List.map (fun (d, _, _) -> d) dims_bounds)
    (List.concat_map
       (fun (d, lo, hi) ->
         [ Constr.ge (v d) (c lo); Constr.le (v d) (c (hi - 1)) ])
       dims_bounds)

(* GEMM reduction: D(i,j) written and read at every (i,j,k) -> distance
   vector (0,0,1), carried at level 3 (Fig. 8's fine-grained analysis) *)
let test_gemm_reduction () =
  let domain = box [ ("i", 0, 32); ("j", 0, 32); ("k", 0, 32) ] in
  let acc = Dep.access "D" [ v "i"; v "j" ] in
  match Dep.analyze ~domain ~source:acc ~sink:acc with
  | None -> Alcotest.fail "expected dependence"
  | Some d ->
      Alcotest.(check int) "carried at level 3" 3 (Dep.outermost_level d);
      Alcotest.(check (option int)) "distance at level 3" (Some 1)
        (Dep.min_distance_at d 3);
      Alcotest.(check (list (option int))) "min distance vector"
        [ Some 0; Some 0; Some 1 ]
        (Dep.min_distance_vector d);
      Alcotest.(check string) "direction" "(=, =, <)"
        (Format.asprintf "(%a)"
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
              Dep.pp_direction)
           d.Dep.direction)

(* BICG's q accumulation: q(i) over (i,j) -> carried at level 2 only *)
let test_bicg_q () =
  let domain = box [ ("i", 0, 16); ("j", 0, 16) ] in
  let acc = Dep.access "q" [ v "i" ] in
  match Dep.analyze ~domain ~source:acc ~sink:acc with
  | None -> Alcotest.fail "expected dependence"
  | Some d ->
      Alcotest.(check int) "single carried level" 2 (Dep.outermost_level d);
      Alcotest.(check int) "same innermost" 2 (Dep.innermost_level d);
      Alcotest.(check (option int)) "not carried at level 1" None
        (Dep.min_distance_at d 1)

(* uniform stencil: write A(i), read A(i-1): distance exactly 1 *)
let test_uniform_stencil () =
  let domain = box [ ("i", 1, 31) ] in
  let w = Dep.access "A" [ v "i" ] in
  let r = Dep.access "A" [ Linexpr.sub (v "i") (c 1) ] in
  match Dep.analyze ~domain ~source:w ~sink:r with
  | None -> Alcotest.fail "expected dependence"
  | Some d ->
      Alcotest.(check (option (list int))) "constant distance" (Some [ 1 ])
        (Dep.constant_distance d)

(* anti-direction read A(i+1): the write never reaches a later read *)
let test_no_forward_dependence () =
  let domain = box [ ("i", 1, 31) ] in
  let w = Dep.access "A" [ v "i" ] in
  let r = Dep.access "A" [ Linexpr.add (v "i") (c 1) ] in
  (* sink (t) reads A(t+1) = A(s) means t = s - 1 < s: no later sink *)
  Alcotest.(check bool) "no dependence" true
    (Dep.analyze ~domain ~source:w ~sink:r = None)

let test_different_arrays () =
  let domain = box [ ("i", 0, 8) ] in
  Alcotest.(check bool) "different arrays never conflict" true
    (Dep.analyze ~domain ~source:(Dep.access "A" [ v "i" ])
       ~sink:(Dep.access "B" [ v "i" ])
    = None)

let test_strided_no_conflict () =
  (* write A(2i), read A(2i + 1): parity separates them *)
  let domain = box [ ("i", 0, 8) ] in
  let w = Dep.access "A" [ Linexpr.term 2 "i" ] in
  let r = Dep.access "A" [ Linexpr.add (Linexpr.term 2 "i") (c 1) ] in
  Alcotest.(check bool) "parity disjoint" true
    (Dep.analyze ~domain ~source:w ~sink:r = None)

(* seidel-style: write A(i,j), read A(i+1,j-1) (i.e. source at (i,j) feeds
   sink at (i+1, j-1) reading the updated value) *)
let test_seidel_diagonal () =
  let domain = box [ ("i", 1, 9); ("j", 1, 9) ] in
  let w = Dep.access "A" [ v "i"; v "j" ] in
  let r = Dep.access "A" [ Linexpr.sub (v "i") (c 1); Linexpr.add (v "j") (c 1) ] in
  match Dep.analyze ~domain ~source:w ~sink:r with
  | None -> Alcotest.fail "expected dependence"
  | Some d ->
      Alcotest.(check (option (list int))) "distance (1,-1)" (Some [ 1; -1 ])
        (Dep.constant_distance d)

(* property: the reported minimal distance at the outermost carried level
   is witnessed by an actual conflicting instance pair (brute force) *)
let prop_distance_witnessed =
  QCheck.Test.make ~name:"minimal distance has a witness" ~count:100
    QCheck.(pair (int_range (-2) 2) (int_range (-2) 2))
    (fun (di, dj) ->
      QCheck.assume (not (di = 0 && dj = 0));
      let n = 6 in
      let domain = box [ ("i", 0, n); ("j", 0, n) ] in
      let w = Dep.access "A" [ v "i"; v "j" ] in
      let r =
        Dep.access "A"
          [ Linexpr.add (v "i") (c di); Linexpr.add (v "j") (c dj) ]
      in
      (* brute force: does any (s, t) with s <lex t conflict? *)
      let exists = ref false in
      for si = 0 to n - 1 do
        for sj = 0 to n - 1 do
          for ti = 0 to n - 1 do
            for tj = 0 to n - 1 do
              if
                (si < ti || (si = ti && sj < tj))
                && si = ti + di && sj = tj + dj
              then exists := true
            done
          done
        done
      done;
      (Dep.analyze ~domain ~source:w ~sink:r <> None) = !exists)

(* ---- the QoR model's query: analyze projected to (level, dmin) ---- *)

let project =
  Option.map (fun (t : Dep.t) ->
      List.map
        (fun (ld : Dep.level_dep) ->
          (ld.Dep.level, Dep.min_distance_at t ld.Dep.level))
        t.Dep.carried)

let carried_printer = QCheck.Print.(option (list (pair int (option int))))

let check_carried msg ~domain ~source ~sink =
  let expected = project (Dep.analyze ~domain ~source ~sink) in
  Alcotest.(check (option (list (pair int (option int))))) msg expected
    (Dep.carried_levels ~domain ~source ~sink);
  expected

let test_carried_gemm () =
  let domain = box [ ("i", 0, 32); ("j", 0, 32); ("k", 0, 32) ] in
  let acc = Dep.access "D" [ v "i"; v "j" ] in
  Alcotest.(check (option (list (pair int (option int)))))
    "reduction carried at level 3, distance 1"
    (Some [ (3, Some 1) ])
    (check_carried "equals analyze" ~domain ~source:acc ~sink:acc)

let test_carried_none () =
  let domain = box [ ("i", 0, 8) ] in
  let w = Dep.access "A" [ Linexpr.term 2 "i" ] in
  let r = Dep.access "A" [ Linexpr.add (Linexpr.term 2 "i") (c 1) ] in
  Alcotest.(check bool) "parity: no dependence" true
    (check_carried "parity" ~domain ~source:w ~sink:r = None);
  Alcotest.(check bool) "different arrays: no dependence" true
    (check_carried "arrays" ~domain ~source:w
       ~sink:(Dep.access "B" [ v "i" ])
    = None)

(* a projection cap no FM combination fits under: under the degrade policy
   a level whose test needs a combination is assumed carried with no known
   distance, in both queries.  Level 1 needs none: the same element forces
   equal [i], which contradicts the strict order at that level. *)
let test_carried_degraded () =
  let domain = box [ ("i", 0, 8); ("j", 0, 8) ] in
  let acc = Dep.access "q" [ v "i" ] in
  let module R = Pom_resilience in
  let capped f = Basic_set.with_projection_cap 1 f in
  R.Policy.with_policy R.Policy.Degrade (fun () ->
      capped (fun () ->
          Alcotest.(check (option (list (pair int (option int)))))
            "level 2 carried, no distance"
            (Some [ (2, None) ])
            (check_carried "degraded" ~domain ~source:acc ~sink:acc)));
  Alcotest.(check bool) "abort policy re-raises" true
    (match capped (fun () -> Dep.carried_levels ~domain ~source:acc ~sink:acc) with
    | exception R.Budget.Budget_exceeded _ -> true
    | _ -> false)

(* random bounded domains from the refuter's generator, random affine
   accesses of rank 1-2 over their dimensions (sometimes to another
   array) *)
let gen_dep_case =
  QCheck.Gen.(
    Pom_refute.Gen.poly () >>= fun pc ->
    let dims = pc.Pom_refute.Case.dims in
    let term = map2 Linexpr.term (int_range (-2) 2) (oneofl dims) in
    let index =
      map2
        (fun ts k -> List.fold_left Linexpr.add (c k) ts)
        (list_size (int_range 1 2) term)
        (int_range (-2) 2)
    in
    int_range 1 2 >>= fun rank ->
    map3
      (fun src snk other ->
        ( pc,
          Dep.access "A" src,
          Dep.access (if other then "B" else "A") snk ))
      (list_repeat rank index) (list_repeat rank index)
      (map (fun k -> k = 0) (int_bound 9)))

let print_dep_case (pc, (src : Dep.access), (snk : Dep.access)) =
  let acc (a : Dep.access) =
    a.Dep.array ^ "["
    ^ String.concat ", " (List.map Linexpr.to_string a.Dep.indices)
    ^ "]"
  in
  Printf.sprintf "%s\nsource %s, sink %s"
    (Pom_refute.Case.to_string (Pom_refute.Case.Poly pc))
    (acc src) (acc snk)

let prop_carried_is_projection =
  QCheck.Test.make ~name:"carried_levels = analyze projected to (level, dmin)"
    ~count:300
    (QCheck.make ~print:print_dep_case gen_dep_case)
    (fun (pc, source, sink) ->
      let domain = Pom_refute.Case.set_of_poly pc in
      let got = Dep.carried_levels ~domain ~source ~sink
      and want = project (Dep.analyze ~domain ~source ~sink) in
      got = want
      || QCheck.Test.fail_reportf "carried_levels %s, analyze %s"
           (carried_printer got) (carried_printer want))

let () =
  Alcotest.run "dep"
    [
      ( "unit",
        [
          Alcotest.test_case "GEMM reduction (0,0,1)" `Quick test_gemm_reduction;
          Alcotest.test_case "BICG q accumulation" `Quick test_bicg_q;
          Alcotest.test_case "uniform stencil distance" `Quick test_uniform_stencil;
          Alcotest.test_case "no forward dependence" `Quick test_no_forward_dependence;
          Alcotest.test_case "different arrays" `Quick test_different_arrays;
          Alcotest.test_case "strided parity disjoint" `Quick test_strided_no_conflict;
          Alcotest.test_case "diagonal stencil distance" `Quick test_seidel_diagonal;
        ] );
      ( "carried levels",
        [
          Alcotest.test_case "GEMM reduction" `Quick test_carried_gemm;
          Alcotest.test_case "no dependence" `Quick test_carried_none;
          Alcotest.test_case "degraded levels" `Quick test_carried_degraded;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_distance_witnessed; prop_carried_is_projection ] );
    ]
