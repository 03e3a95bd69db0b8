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

let test_emptiness_basic () =
  Alcotest.(check bool) "box non-empty" false (Feasible.is_empty (box [ ("i", 0, 4) ]));
  let empty =
    Basic_set.make [ "i" ] [ Constr.ge (v "i") (c 5); Constr.le (v "i") (c 2) ]
  in
  Alcotest.(check bool) "contradictory bounds" true (Feasible.is_empty empty)

let test_emptiness_gcd () =
  (* 2i = 1 has no integer solution *)
  let s =
    Basic_set.make [ "i" ]
      [ Constr.Eq (Linexpr.add (Linexpr.term 2 "i") (c (-1))) ]
  in
  Alcotest.(check bool) "parity equality empty" true (Feasible.is_empty s)

let test_emptiness_needs_combination () =
  (* i + j >= 5 and i <= 1 and j <= 1: empty only after combining *)
  let s =
    Basic_set.make [ "i"; "j" ]
      [
        Constr.ge (Linexpr.add (v "i") (v "j")) (c 5);
        Constr.le (v "i") (c 1);
        Constr.le (v "j") (c 1);
      ]
  in
  Alcotest.(check bool) "combined emptiness" true (Feasible.is_empty s)

let test_enumerate () =
  let s = box [ ("i", 0, 2); ("j", 0, 3) ] in
  Alcotest.(check (list (list int))) "lexicographic enumeration"
    [ [ 0; 0 ]; [ 0; 1 ]; [ 0; 2 ]; [ 1; 0 ]; [ 1; 1 ]; [ 1; 2 ] ]
    (Feasible.enumerate s);
  Alcotest.(check int) "count" 6 (Feasible.count s)

let test_enumerate_triangle () =
  (* j <= i over 0 <= i < 3 *)
  let s =
    Basic_set.add_constraint (Constr.le (v "j") (v "i")) (box [ ("i", 0, 3); ("j", 0, 3) ])
  in
  Alcotest.(check int) "triangular count" 6 (Feasible.count s)

let test_sample () =
  let s = box [ ("i", 3, 5) ] in
  Alcotest.(check (option (list int))) "first point" (Some [ 3 ]) (Feasible.sample s);
  let e = Basic_set.make [ "i" ] [ Constr.ge (v "i") (c 1); Constr.le (v "i") (c 0) ] in
  Alcotest.(check (option (list int))) "empty sample" None (Feasible.sample e)

let test_min_max () =
  let s = box [ ("i", 2, 7); ("j", 1, 4) ] in
  let obj = Linexpr.add (v "i") (Linexpr.term 2 "j") in
  Alcotest.(check (option int)) "min" (Some 4) (Feasible.min_of obj s);
  Alcotest.(check (option int)) "max" (Some 12) (Feasible.max_of obj s)

let test_min_max_empty () =
  let e = Basic_set.make [ "i" ] [ Constr.ge (v "i") (c 1); Constr.le (v "i") (c 0) ] in
  Alcotest.(check (option int)) "min of empty" None (Feasible.min_of (v "i") e)

(* random small polyhedra come from the refutation engine's shared
   generator — one distribution (and one shrinker) serves this suite,
   test_basic_set, and the pom_refute fuzzing driver *)
module Rcase = Pom_refute.Case

let env_of dims pt =
  let tbl = List.combine dims pt in
  fun x -> List.assoc x tbl

let brute_force_empty pc s =
  not
    (List.exists
       (fun pt -> Basic_set.mem (env_of pc.Rcase.dims pt) s)
       (Rcase.box_points pc))

let prop_emptiness_exact =
  QCheck.Test.make ~name:"is_empty agrees with brute force" ~count:500
    (Pom_refute.Gen.arb_poly ())
    (fun pc ->
      let s = Rcase.set_of_poly pc in
      Feasible.is_empty s = brute_force_empty pc s)

let prop_min_is_attained =
  QCheck.Test.make ~name:"min_of is attained and minimal" ~count:300
    (Pom_refute.Gen.arb_poly ())
    (fun pc ->
      let s = Rcase.set_of_poly pc in
      let obj =
        match pc.Rcase.dims with
        | [ d ] -> v d
        | d :: d' :: _ -> Linexpr.add (v d) (Linexpr.term (-2) d')
        | [] -> assert false
      in
      match Feasible.min_of obj s with
      | None -> Feasible.is_empty s
      | Some m ->
          let values =
            List.map
              (fun pt -> Linexpr.eval (env_of pc.Rcase.dims pt) obj)
              (Feasible.enumerate s)
          in
          (* projection bound is sound (<= all values); exact on this
             unit-coefficient objective *)
          values <> [] && List.for_all (fun x -> m <= x) values)

(* strip-mine a case's first dimension by [f]: d = f*d_o + d_i with
   0 <= d_i < f, the outer tile dimension listed first — the shape whose
   listed-order elimination is inexact.  Strip-mining is a bijection, so
   the tiled set is empty iff the case is. *)
let strip_mine f pc =
  let s = Rcase.set_of_poly pc in
  let d = List.hd pc.Rcase.dims in
  let o = d ^ "_o" and i = d ^ "_i" in
  Basic_set.change_space
    ~new_dims:(o :: i :: List.tl pc.Rcase.dims)
    ~bindings:[ (d, Linexpr.add (Linexpr.term f o) (v i)) ]
    ~extra:[ Constr.ge (v i) (c 0); Constr.le (v i) (c (f - 1)) ]
    s

let prop_tiled_emptiness_exact =
  QCheck.Test.make ~name:"is_empty on strip-mined sets agrees with brute force"
    ~count:300
    QCheck.(pair (int_range 2 5) (Pom_refute.Gen.arb_poly ()))
    (fun (f, pc) ->
      Feasible.is_empty (strip_mine f pc)
      = brute_force_empty pc (Rcase.set_of_poly pc))

(* a tiled box (i = 32*i_o + i_i, 0 <= i < 64): eliminating i_i first keeps
   every step exact, so FM decides the test without enumeration *)
let test_tiled_decided_by_fm () =
  let tiled =
    Basic_set.change_space ~new_dims:[ "i_o"; "i_i" ]
      ~bindings:[ ("i", Linexpr.add (Linexpr.term 32 "i_o") (v "i_i")) ]
      ~extra:[ Constr.ge (v "i_i") (c 0); Constr.le (v "i_i") (c 31) ]
      (box [ ("i", 0, 64) ])
  in
  let before = Feasible.stats () in
  Alcotest.(check bool) "non-empty" false (Feasible.is_empty tiled);
  let after = Feasible.stats () in
  Alcotest.(check int) "decided by FM" 1
    (after.Feasible.fm_decided - before.Feasible.fm_decided);
  Alcotest.(check int) "no enumeration" 0
    (after.Feasible.enumerated - before.Feasible.enumerated)

let () =
  Alcotest.run "feasible"
    [
      ( "unit",
        [
          Alcotest.test_case "basic emptiness" `Quick test_emptiness_basic;
          Alcotest.test_case "GCD emptiness" `Quick test_emptiness_gcd;
          Alcotest.test_case "combined emptiness" `Quick
            test_emptiness_needs_combination;
          Alcotest.test_case "enumeration" `Quick test_enumerate;
          Alcotest.test_case "triangular enumeration" `Quick test_enumerate_triangle;
          Alcotest.test_case "sampling" `Quick test_sample;
          Alcotest.test_case "optimization" `Quick test_min_max;
          Alcotest.test_case "optimization over empty" `Quick test_min_max_empty;
          Alcotest.test_case "tiled set decided by FM" `Quick
            test_tiled_decided_by_fm;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_emptiness_exact; prop_tiled_emptiness_exact; prop_min_is_attained ] );
    ]
