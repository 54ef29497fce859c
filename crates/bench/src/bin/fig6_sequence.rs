//! Figure 6 — silhouettes and stick models across a whole jump.
//!
//! The paper's Fig. 6 shows, frame by frame, the computer-extracted
//! silhouette with the *manually drawn* stick model. Here the synthetic
//! ground-truth pose plays the "manual" role: the table reports, per
//! frame, how well the pipeline's silhouette matches the true one and
//! how far the tracked stick model is from the true pose. Overlay panels
//! go to `target/figures/`.

use slj::prelude::*;
use slj_bench::{banner, f1, f3, figures_dir, print_table};
use slj_ga::tracker::RecoveryAction;
use slj_imgproc::pixel::Rgb;

fn main() {
    let seed = 1006;
    banner(
        "Figure 6",
        "per-frame silhouette quality and tracked stick model vs truth (full pipeline)",
        seed,
    );
    let scene = SceneConfig::default();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), seed);
    let analyzer = JumpAnalyzer::new(AnalyzerConfig::default());
    let report = analyzer
        .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
        .expect("analysis");

    let mut rows = Vec::new();
    for k in 0..jump.len() {
        let sil_iou = report.segmentation.frames[k]
            .final_mask
            .iou(&jump.silhouettes[k])
            .expect("dims");
        let err = report.poses.poses()[k].error_against(&jump.poses.poses()[k]);
        rows.push(vec![
            k.to_string(),
            f3(sil_iou),
            f3(report.tracking[k].fitness),
            f1(err.mean_angle_error()),
            f1(err.max_angle_error()),
            f3(err.center_distance),
            if report.tracking[k].recovery == RecoveryAction::CarriedOver {
                "carried".into()
            } else {
                format!("{}", report.tracking[k].generations_run)
            },
        ]);
    }
    print_table(
        &[
            "frame",
            "sil IoU",
            "Eq.3 fit",
            "mean angle err (deg)",
            "max angle err (deg)",
            "centre err (m)",
            "GA gens",
        ],
        &rows,
    );

    // Overlay panels for a handful of frames, paper style: silhouette in
    // white, truth model in green, estimate in red — plus one montage of
    // all six panels (the paper's contact-sheet layout).
    let dir = figures_dir();
    let mut panels = Vec::new();
    for k in [0, 4, 8, 12, 16, 19] {
        let sil = &report.segmentation.frames[k].final_mask;
        let mut panel = slj::viz::silhouette_with_model(
            sil,
            &jump.poses.poses()[k],
            &jump.jump.dims,
            &scene.camera,
            Rgb::new(0, 220, 0),
        );
        slj::viz::draw_stick_model(
            &mut panel,
            &report.poses.poses()[k],
            &jump.jump.dims,
            &scene.camera,
            Rgb::new(230, 30, 30),
        );
        slj_imgproc::io::save_ppm(&panel, dir.join(format!("fig6_frame_{k:02}.ppm"))).unwrap();
        panels.push(panel);
    }
    let sheet = slj::viz::contact_sheet(&panels, 3);
    slj_imgproc::io::save_ppm(&sheet, dir.join("fig6_contact_sheet.ppm")).unwrap();
    println!(
        "\noverlay panels + contact sheet written to {}",
        dir.display()
    );

    let score = &report.score;
    println!("\nend-to-end score card for the (good) jump:\n{score}");
    println!(
        "Reading: silhouette IoU stays high through the jump; the tracked\n\
         model follows the true one within a few degrees on the large sticks\n\
         (small sticks — neck, foot — are noisier, as with any silhouette\n\
         method)."
    );
}
