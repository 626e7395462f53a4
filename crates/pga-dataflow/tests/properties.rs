//! Property test: `Dataflow::map` agrees with a sequential `map` for any
//! input length and worker count, and runs `2 × workers` tasks per call.

use proptest::prelude::*;

use pga_dataflow::Dataflow;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn map_equals_sequential(
        d in proptest::collection::vec(-1000i64..1000, 0..64),
        workers in 1usize..6,
    ) {
        let df = Dataflow::new(workers);
        for call in 1..=2u64 {
            let got = df.map(d.clone(), |x| x * 3 - 1);
            let expect: Vec<i64> = d.iter().map(|x| x * 3 - 1).collect();
            prop_assert_eq!(got, expect);
            prop_assert_eq!(df.stats().tasks_run, call * 2 * workers as u64);
        }
    }
}
